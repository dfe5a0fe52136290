// Command perfbench is SPIRE's end-to-end benchmark. It generates a
// seeded warehouse workload, runs it through the program's public APIs
// with the program's defaults, checks the output, and prints a report
// whose last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of a traced run. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed seconds to measure")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for event logs (removed afterwards)")
	flag.Parse()
	o.trace = *trace == 1
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	res, err := run(o, out)
	if err != nil {
		fmt.Fprintf(out, "# FAILED: %v\n", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if ferr := out.Flush(); ferr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", ferr)
		os.Exit(1)
	}
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContext is the host and build a report was measured on.
func runContext() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printf(w io.Writer, format string, args ...any) { fmt.Fprintf(w, format, args...) }
