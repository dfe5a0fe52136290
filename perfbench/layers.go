package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"spire/internal/cep"
	"spire/internal/core"
	"spire/internal/eventlog"
	"spire/internal/federate"
)

// layerSnap is a reading of the program's cumulative telemetry at one
// instant; a pass subtracts the reading at the start of its timed window
// from the reading at its end.
type layerSnap struct {
	dedup, update, infer, conflict, compress float64 // stage seconds
	dups                                     int64
	dirty, clean, inferred, cached           int64
	compEvents, compBytes                    int64
	cepMatches                               uint64
	cep                                      time.Duration
	logBytes                                 int64

	barrierWait                     float64
	mergedEvents, rxBytes           int64
	rttSum                          float64
	rttCount                        uint64
	stalls, replayed, connectFailed int64
}

// add accumulates one substrate's instruments into the snapshot (zones
// sum both zone substrates).
func (s *layerSnap) add(ins *core.Instruments) {
	s.dedup += ins.StageDedup.Sum()
	s.update += ins.StageUpdate.Sum()
	s.infer += ins.StageInfer.Sum()
	s.conflict += ins.StageConflict.Sum()
	s.compress += ins.StageCompress.Sum()
	s.dups += ins.Dedup.Duplicates.Value()
	s.dirty += ins.InferDirty.Value()
	s.clean += ins.InferClean.Value()
	s.inferred += ins.InferNodesRun.Value()
	s.cached += ins.InferNodesCached.Value()
	s.compEvents += ins.Comp.Events.Value()
	s.compBytes += ins.Comp.Bytes.Value()
}

func snapSingle(ins *core.Instruments, engine *cep.Engine, shim *cepShim, log *eventlog.Log) layerSnap {
	var s layerSnap
	s.add(ins)
	if engine != nil {
		for _, st := range engine.Subscriptions() {
			s.cepMatches += st.Matches
		}
	}
	if shim != nil {
		s.cep = shim.busy
	}
	s.logBytes = dirBytes(log.Dir())
	return s
}

// addFederate accumulates the cluster's own instruments.
func (s *layerSnap) addFederate(ci *federate.CoordinatorInstruments, wis []*federate.WorkerInstruments) {
	s.barrierWait += ci.BarrierWait.Sum()
	s.mergedEvents += ci.MergedEvents.Value()
	for _, c := range ci.ZoneRxBytes {
		s.rxBytes += c.Value()
	}
	for _, wi := range wis {
		s.rttSum += wi.AckRTT.Sum()
		s.rttCount += wi.AckRTT.Count()
		s.stalls += wi.AckStalls.Value()
		s.replayed += wi.ReplayedEpochs.Value()
		s.connectFailed += wi.ConnectFailures.Value()
	}
}

// dirBytes sums the sizes of the files in dir: the eventlog writes its
// segments unbuffered, so this is the bytes appended so far.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// layers is the per-layer breakdown of one traced timed window.
type layers struct {
	decode, process, append, cep time.Duration // timed around calls

	dedup, update, infer, conflict, compress float64 // stage sums, seconds

	dups, dirty, clean, inferred, cached float64
	compEvents, compBytes, cepMatches    float64
	logBytes                             float64
	graphNodes, graphEdges, graphFree    float64

	allocPerReading, gcCPUFrac float64

	barrierWait, mergedEvents, rxBytes float64
	ackRTTMeanMS                       float64
	stalls, replayed, connectFailed    float64
}

func (l *layers) fill(a, b layerSnap) {
	l.dedup = b.dedup - a.dedup
	l.update = b.update - a.update
	l.infer = b.infer - a.infer
	l.conflict = b.conflict - a.conflict
	l.compress = b.compress - a.compress
	l.dups = float64(b.dups - a.dups)
	l.dirty = float64(b.dirty - a.dirty)
	l.clean = float64(b.clean - a.clean)
	l.inferred = float64(b.inferred - a.inferred)
	l.cached = float64(b.cached - a.cached)
	l.compEvents = float64(b.compEvents - a.compEvents)
	l.compBytes = float64(b.compBytes - a.compBytes)
	l.cepMatches = float64(b.cepMatches - a.cepMatches)
	l.cep = b.cep - a.cep
	l.logBytes = float64(b.logBytes - a.logBytes)
	l.barrierWait = b.barrierWait - a.barrierWait
	l.mergedEvents = float64(b.mergedEvents - a.mergedEvents)
	l.rxBytes = float64(b.rxBytes - a.rxBytes)
	if n := b.rttCount - a.rttCount; n > 0 {
		l.ackRTTMeanMS = (b.rttSum - a.rttSum) / float64(n) * 1e3
	}
	l.stalls = float64(b.stalls - a.stalls)
	l.replayed = float64(b.replayed - a.replayed)
	l.connectFailed = float64(b.connectFailed - a.connectFailed)
}

// runtimeSnap is the Go runtime's cumulative allocation and CPU
// accounting.
type runtimeSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func (l *layers) runtime(a, b runtimeSnap, readings int64) {
	if readings > 0 {
		l.allocPerReading = float64(b.allocBytes-a.allocBytes) / float64(readings)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		l.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPerTag is the live heap the program holds, net of the harness's
// own input (base, measured before any substrate existed), per graph
// node.
func heapPerTag(base uint64, nodes int) float64 {
	live := liveHeap()
	if nodes == 0 || live <= base {
		return 0
	}
	return float64(live-base) / float64(nodes)
}

// layerMetric is one per_layer metric of BENCHMARK.json.
type layerMetric struct {
	name, unit string
	value      func(l *layers) float64
}

func secs(d time.Duration) float64 { return d.Seconds() }

// layerMetrics lists every per-layer metric in report order.
var layerMetrics = []layerMetric{
	{"stream.decode_s", "s", func(l *layers) float64 { return secs(l.decode) }},
	{"core.process_s", "s", func(l *layers) float64 { return secs(l.process) }},
	{"core.self_s", "s", func(l *layers) float64 { return l.coreSelf() }},
	{"dedup.busy_s", "s", func(l *layers) float64 { return l.dedup }},
	{"dedup.duplicates", "count", func(l *layers) float64 { return l.dups }},
	{"graph.update_busy_s", "s", func(l *layers) float64 { return l.update }},
	{"graph.nodes", "count", func(l *layers) float64 { return l.graphNodes }},
	{"graph.edges", "count", func(l *layers) float64 { return l.graphEdges }},
	{"graph.free_edges", "count", func(l *layers) float64 { return l.graphFree }},
	{"inference.busy_s", "s", func(l *layers) float64 { return l.infer }},
	{"inference.conflict_busy_s", "s", func(l *layers) float64 { return l.conflict }},
	{"inference.components_dirty", "count", func(l *layers) float64 { return l.dirty }},
	{"inference.components_clean", "count", func(l *layers) float64 { return l.clean }},
	{"inference.nodes_inferred", "count", func(l *layers) float64 { return l.inferred }},
	{"inference.nodes_cached", "count", func(l *layers) float64 { return l.cached }},
	{"inference.cache_hit_frac", "frac", func(l *layers) float64 { return ratio(l.cached, l.inferred+l.cached) }},
	{"compress.self_s", "s", func(l *layers) float64 { return l.compress - secs(l.cep) }},
	{"compress.events", "count", func(l *layers) float64 { return l.compEvents }},
	{"compress.bytes", "B", func(l *layers) float64 { return l.compBytes }},
	{"cep.dispatch_s", "s", func(l *layers) float64 { return secs(l.cep) }},
	{"cep.matches", "count", func(l *layers) float64 { return l.cepMatches }},
	{"eventlog.append_s", "s", func(l *layers) float64 { return secs(l.append) }},
	{"eventlog.bytes", "B", func(l *layers) float64 { return l.logBytes }},
	{"federate.barrier_wait_s", "s", func(l *layers) float64 { return l.barrierWait }},
	{"federate.merged_events", "count", func(l *layers) float64 { return l.mergedEvents }},
	{"federate.rx_bytes", "B", func(l *layers) float64 { return l.rxBytes }},
	{"federate.ack_rtt_mean_ms", "ms", func(l *layers) float64 { return l.ackRTTMeanMS }},
	{"federate.ack_stalls", "count", func(l *layers) float64 { return l.stalls }},
	{"federate.replayed_epochs", "count", func(l *layers) float64 { return l.replayed }},
	{"federate.connect_failures", "count", func(l *layers) float64 { return l.connectFailed }},
	{"runtime.alloc_bytes_per_reading", "B", func(l *layers) float64 { return l.allocPerReading }},
	{"runtime.gc_cpu_frac", "frac", func(l *layers) float64 { return l.gcCPUFrac }},
}

// stageSum is the time the substrate's own stage marks account for.
func (l *layers) stageSum() float64 {
	return l.dedup + l.update + l.infer + l.conflict + l.compress
}

// coreSelf is the part of core.process_s no stage mark covers: the
// substrate's bookkeeping between marks (validation, stats, the
// telemetry recording itself).
func (l *layers) coreSelf() float64 { return secs(l.process) - l.stageSum() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// values evaluates every per-layer metric of one window.
func (l *layers) values() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = lm.value(l)
	}
	return m
}

// meanLayers averages the traced passes' per-layer values: every traced
// pass covers the same timed epochs, so the mean is a per-window figure
// that does not depend on how many passes fit in --seconds, and a layer
// that is a sum of others stays that sum.
func meanLayers(ps []*pass) map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	n := 0
	for _, p := range ps {
		if p.kind != traced {
			continue
		}
		n++
		for k, v := range p.layers.values() {
			m[k] += v
		}
	}
	for k := range m {
		m[k] /= float64(n)
	}
	return m
}

// hostSteal reads the machine's cumulative CPU time and the part of it a
// hypervisor stole for other guests, in clock ticks, from /proc/stat. It
// returns zeros where that file is unavailable.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
