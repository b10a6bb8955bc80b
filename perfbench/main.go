// Command perfbench is the repository benchmark: one process that
// generates a workload's inputs from a seed, runs the training, serving
// and online-learning layers on them, checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "span file written in traced mode (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	h := fingerprint(*workload, *seed, *seconds, *trace == 1)
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	out := run(fullSizes, *seed, float64(*seconds), tr)
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	res := result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed}
	if tr != nil {
		spans := tr.finish()
		sums := summarize(spans)
		printSummary(os.Stderr, sums)
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		}
		if err := writeTrace(path, traceFile{Host: h, Summary: sums, Spans: spans}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		res.Metrics = pick(perLayerMetrics(), out.layer)
	} else {
		res.Metrics = pick(endToEndMetrics, out.e2e)
	}
	rj, _ := json.Marshal(res)
	fmt.Println(string(rj))
	if !res.Correct {
		os.Exit(1)
	}
}

// pick selects the listed metrics from vals; every listed metric is
// printed, and a workload that did not produce one reports it as 0.
func pick(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
