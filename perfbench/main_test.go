package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestSeedDeterminesInputAndOutput pins the seed contract at tiny scale:
// the same seed gives identical input and reference-output digests, a
// different seed gives different ones.
func TestSeedDeterminesInputAndOutput(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			gen := func(seed int64) *input {
				sp, err := workload(name, seed, true)
				if err != nil {
					t.Fatal(err)
				}
				in, err := generate(sp)
				if err != nil {
					t.Fatal(err)
				}
				return in
			}
			a, b, c := gen(1), gen(1), gen(2)
			if a.digest != b.digest || a.refDigest != b.refDigest {
				t.Errorf("seed 1 twice: input %x/%x, output %x/%x", a.digest[:4], b.digest[:4], a.refDigest[:4], b.refDigest[:4])
			}
			if a.digest == c.digest || a.refDigest == c.refDigest {
				t.Errorf("seeds 1 and 2 share a digest: input %x, output %x", a.digest[:4], a.refDigest[:4])
			}
			if a.timedReadings == 0 || a.timedEpochs == 0 {
				t.Errorf("empty timed window: %d readings over %d epochs", a.timedReadings, a.timedEpochs)
			}
		})
	}
}

// benchMetrics reads the metric names and units BENCHMARK.json declares.
func benchMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, x := range doc.EndToEnd {
		endToEnd[x.Name] = x.Unit
	}
	for _, x := range doc.PerLayer {
		perLayer[x.Name] = x.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricEmitted runs each workload at tiny scale, untraced and
// traced, and requires a correct result carrying exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := benchMetrics(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 0.01, trace: trace, workdir: t.TempDir(), tiny: true}
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for n, unit := range want {
				if got, ok := res.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, n)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", name, trace, n, got.Unit, unit)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", name, trace, n)
				}
			}
		}
	}
}
