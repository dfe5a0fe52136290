package main

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	tiny     bool // shrink the workload (self-test only)
}

// minUntraced is the fewest untraced passes a run makes, so setup_s is
// always a median of several set-ups.
const minUntraced = 3

// minTraced is the fewest passes of each kind a traced run makes.
const minTraced = 2

// cleanSteal is the host CPU steal below which a pass counts as
// undisturbed.
const cleanSteal = 0.02

// leastStolen keeps the passes the hypervisor disturbed least: the half
// with the lowest host CPU steal (at least three, or all of them when
// there are fewer). On a shared host another guest can take a quarter of
// the CPU for tens of seconds, which cuts throughput by a third; a pass
// measured then measures the neighbour, not the program.
func leastStolen(ps []*pass) []*pass {
	s := slices.Clone(ps)
	slices.SortStableFunc(s, func(a, b *pass) int { return cmp.Compare(a.stealFrac, b.stealFrac) })
	return s[:max((len(s)+1)/2, min(3, len(s)))]
}

// run executes one benchmark run and writes its report to w. It returns
// the result line; on any failure the result is marked incorrect and
// carries no metrics.
func run(o options, w io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	sp, err := workload(o.workload, o.seed, o.tiny)
	if err != nil {
		return res, err
	}
	printf(w, "# perfbench workload=%s seed=%d trace=%t seconds=%g\n", sp.name, o.seed, o.trace, o.seconds)
	printf(w, "# context: %s\n", runContext())
	printf(w, "# workload: %s\n", sp.why)

	in, err := generate(sp)
	if err != nil {
		return res, fmt.Errorf("generate input: %w", err)
	}
	printf(w, "# input: seed=%d warm-up epochs=%d timed epochs=%d timed readings=%d sha256=%s\n",
		o.seed, sp.warmup, in.timedEpochs, in.timedReadings, hex.EncodeToString(in.digest[:8]))
	heapBase := liveHeap()

	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	var passes []*pass
	var timedU, timedT time.Duration
	nU, nT := 0, 0
	next := func() passKind {
		if !o.trace || nT >= nU {
			return untraced
		}
		return traced
	}
	loopStart := time.Now()
	var extendUntil time.Time
	more := func() bool {
		if o.trace {
			return nU < minTraced || nT < minTraced || (timedU+timedT).Seconds() < o.seconds || nT < nU
		}
		if nU < minUntraced || timedU.Seconds() < o.seconds {
			return true
		}
		// The host may have been stealing CPU for the whole measurement;
		// keep going, for at most half as long again, until three passes
		// ran undisturbed.
		if extendUntil.IsZero() {
			extendUntil = time.Now().Add(time.Since(loopStart) / 2)
		}
		clean := 0
		for _, p := range passes {
			if p.stealFrac <= cleanSteal {
				clean++
			}
		}
		return clean < minUntraced && time.Now().Before(extendUntil)
	}
	for more() {
		kind := next()
		res.Attempted += int64(in.timedEpochs)
		p, err := runPass(in, kind, filepath.Join(dir, fmt.Sprintf("pass%03d", len(passes))), heapBase, len(passes) == 0)
		if err == nil && p.digest != in.refDigest {
			err = fmt.Errorf("event stream sha256 %x differs from the reference pass %x", p.digest[:8], in.refDigest[:8])
		}
		if err != nil {
			res.Failed += int64(in.timedEpochs)
			return res, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		passes = append(passes, p)
		printf(w, "# pass %d (%s): setup %.3f s, timed %.3f s, %.6g readings/s, host steal %.1f%%\n",
			len(passes)-1, kind, p.setup.Seconds(), p.timed.Seconds(), float64(p.readings)/p.timed.Seconds(), 100*p.stealFrac)
		if kind == untraced {
			nU++
			timedU += p.timed
		} else {
			nT++
			timedT += p.timed
		}
	}

	printf(w, "# checks: decompressed level-2 stream well-formed; event stream sha256=%s identical across %d untraced passes, %d traced passes and the reference pass",
		hex.EncodeToString(in.refDigest[:8]), nU, nT)
	if sp.zones > 0 {
		printf(w, "; merged stream byte-identical to the serial federate.Merger replay")
	}
	printf(w, "\n")
	res.Correct = true

	if o.trace {
		reportLayers(w, sp, passes, &res)
	} else {
		reportEndToEnd(w, passes, in, &res)
	}
	printf(w, "# failed_frac=%g (%d of %d timed epochs failed)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	return res, nil
}

// runPass runs one timed pass and verifies its eventlog: the stream
// digest always, and the decompressed well-formedness on the first pass
// (every pass must reproduce the first one's digest, so checking one
// stream checks them all).
func runPass(in *input, kind passKind, logDir string, heapBase uint64, wellFormed bool) (*pass, error) {
	var p *pass
	var err error
	if in.spec.zones > 0 {
		p, err = runCluster(in, kind, logDir, heapBase)
	} else {
		p, err = runSingle(in, kind, logDir, heapBase)
	}
	if err != nil {
		return nil, err
	}
	if p.digest, err = verifyLog(logDir, wellFormed); err != nil {
		return nil, err
	}
	return p, os.RemoveAll(logDir)
}

// e2eMetric is one end-to-end metric. The gated ones are the end_to_end
// metrics of BENCHMARK.json and go into the result line; the others are
// printed in the report only (see README.md for why).
type e2eMetric struct {
	name, unit string
	gated      bool
}

var e2eMetrics = []e2eMetric{
	{"readings_per_s", "1/s", true},
	{"epoch_p50_ms", "ms", true},
	{"epoch_p99_ms", "ms", true},
	{"heap_bytes_per_tag", "B", true},
	{"setup_s", "s", true},
	{"compression_ratio", "ratio", true},
	{"location_err", "frac", true},
	{"containment_err", "frac", false},
}

// reportEndToEnd reports the untraced passes. Rates and percentiles are
// taken per pass and the median of the kept passes is reported.
func reportEndToEnd(w io.Writer, passes []*pass, in *input, res *result) {
	var raw, ev int64
	var rate, p50, p99, setup, heap []float64
	kept := leastStolen(passes)
	for _, p := range kept {
		raw += p.rawBytes
		ev += p.eventBytes
		lat := slices.Clone(p.epochMS)
		slices.Sort(lat)
		rate = append(rate, float64(p.readings)/p.timed.Seconds())
		p50 = append(p50, percentile(lat, 50))
		p99 = append(p99, percentile(lat, 99))
		setup = append(setup, p.setup.Seconds())
		heap = append(heap, p.heapPerTag)
	}
	v := map[string]float64{
		"readings_per_s":     median(rate),
		"epoch_p50_ms":       median(p50),
		"epoch_p99_ms":       median(p99),
		"heap_bytes_per_tag": median(heap),
		"setup_s":            median(setup),
		"compression_ratio":  ratio(float64(ev), float64(raw)),
		"location_err":       in.acc.LocationErrorRate(),
		"containment_err":    in.acc.ContainmentErrorRate(),
	}
	n, per := len(kept), len(kept[0].epochMS)
	perPass := fmt.Sprintf("median of %d passes", n)
	printf(w, "# statistics use the %d of %d passes with the least host CPU steal (%.1f%% to %.1f%%)\n",
		n, len(passes), 100*kept[0].stealFrac, 100*kept[n-1].stealFrac)
	notes := map[string]string{
		"readings_per_s":     fmt.Sprintf("%s; %d readings per pass", perPass, passes[0].readings),
		"epoch_p50_ms":       fmt.Sprintf("%s; n=%d samples per pass", perPass, per),
		"epoch_p99_ms":       fmt.Sprintf("%s; n=%d samples per pass, %d beyond", perPass, per, per-rank(per, 99)),
		"heap_bytes_per_tag": perPass,
		"setup_s":            fmt.Sprintf("median of %d set-ups", n),
		"compression_ratio":  fmt.Sprintf("%d event bytes / %d raw reading bytes", ev, raw),
		"location_err":       fmt.Sprintf("%d of %d scored verdicts", in.acc.LocWrong, in.acc.LocTotal),
		"containment_err":    fmt.Sprintf("%d of %d scored verdicts", in.acc.ContWrong, in.acc.ContTotal),
	}
	for _, m := range e2eMetrics {
		if m.gated {
			res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
		}
		printf(w, "%-20s %14.6g %-5s  (%s)\n", m.name, v[m.name], m.unit, notes[m.name])
	}
}

// reportLayers prints the traced breakdown: each layer's time next to
// the end-to-end time it sits under, so the layers visibly add up.
func reportLayers(w io.Writer, sp spec, passes []*pass, res *result) {
	var us, ts []*pass
	for _, p := range passes {
		if p.kind == traced {
			ts = append(ts, p)
		} else {
			us = append(us, p)
		}
	}
	allT := len(ts)
	us, ts = leastStolen(us), leastStolen(ts)
	rate := func(ps []*pass) float64 {
		var r []float64
		for _, p := range ps {
			r = append(r, float64(p.readings)/p.timed.Seconds())
		}
		return median(r)
	}
	// The end-to-end time the layers sit under: the epochs' own time for
	// flow and stock, the timed window's wall clock for zones (whose
	// workers run in parallel).
	var epochSum float64
	for _, p := range ts {
		if sp.zones > 0 {
			epochSum += p.timed.Seconds()
			continue
		}
		for _, ms := range p.epochMS {
			epochSum += ms / 1e3
		}
	}
	nT := len(ts)
	epochSum /= float64(nT)
	vals := meanLayers(ts)
	untracedRate, tracedRate := rate(us), rate(ts)
	vals["trace.overhead_frac"] = 1 - tracedRate/untracedRate

	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{Value: vals[lm.name], Unit: lm.unit}
	}
	res.Metrics["trace.overhead_frac"] = metric{Value: vals["trace.overhead_frac"], Unit: "frac"}

	row := func(indent int, name string, v float64, unit, note string) {
		printf(w, "%-*s%-*s %12.6g %-5s %s\n", indent, "", 36-indent, name, v, unit, note)
	}
	share := func(v, of float64) string { return fmt.Sprintf("%5.1f%%", 100*ratio(v, of)) }
	proc := vals["core.process_s"]
	printf(w, "# per-layer breakdown: mean of the %d least-stolen of %d traced windows of %d epochs each; times in seconds per window\n",
		nT, allT, passes[0].epochs)
	if sp.zones > 0 {
		row(0, "timed window (wall)", epochSum, "s", "gate open to the last timed epoch merged")
		row(2, "core.process_s", proc, "s", "both zone workers' epoch loops (ProcessBatch + submit), run in parallel")
	} else {
		row(0, "epoch time", epochSum, "s", "sum of per-epoch time = decode + process + append")
		row(2, "stream.decode_s", vals["stream.decode_s"], "s", share(vals["stream.decode_s"], epochSum))
		row(2, "core.process_s", proc, "s", share(proc, epochSum))
	}
	for _, n := range []string{"dedup.busy_s", "graph.update_busy_s", "inference.busy_s",
		"inference.conflict_busy_s", "compress.self_s", "cep.dispatch_s", "core.self_s"} {
		row(4, n, vals[n], "s", share(vals[n], proc))
	}
	sum := 0.0
	for _, n := range []string{"dedup.busy_s", "graph.update_busy_s", "inference.busy_s",
		"inference.conflict_busy_s", "compress.self_s", "cep.dispatch_s", "core.self_s"} {
		sum += vals[n]
	}
	row(4, "(sum of the seven above)", sum, "s", fmt.Sprintf("= core.process_s %.6g", proc))
	row(2, "eventlog.append_s", vals["eventlog.append_s"], "s", share(vals["eventlog.append_s"], epochSum))
	printf(w, "# counters and per-layer ratios (mean per window):\n")
	for _, lm := range layerMetrics {
		if lm.unit != "s" {
			row(2, lm.name, vals[lm.name], lm.unit, "")
		}
	}
	row(2, "trace.overhead_frac", vals["trace.overhead_frac"], "frac",
		fmt.Sprintf("untraced %.6g vs traced %.6g readings/s", untracedRate, tracedRate))
	if sp.zones == 0 && ratio(vals["stream.decode_s"], epochSum) < 0.01 {
		printf(w, "# note: stream.decode_s is under 1%% of epoch time, so no workload can show a decode gain\n")
	}
}

// rank is the 1-based nearest-rank index of percentile q among n sorted
// samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(float64(n)*q/100)), 1), n)
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
