package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload in about a second.
var tinySizes = sizes{
	NoisyN:     512,
	LargeN:     4096,
	ServeN:     256,
	Body:       64,
	Bodies:     8,
	SetupS:     0,
	LearnSetup: 0,
	Rate:       100,
	LimitMS:    latencyLimitMS,
	LearnRate:  40,
	LearnBatch: 8,
	GraceS:     3,
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"planted": func(s int64) any { return plantedSet(rngFor(s, streamTrain), 64, 3, 0.05) },
		"band":    func(s int64) any { return bandSet(rngFor(s, streamTrain), 256, 2, 16) },
		"uniform": func(s int64) any { return uniformPoints(rngFor(s, streamQueries), 32, 3) },
		"serve":   func(s int64) any { return genServe(tinySizes, s).bodies },
		"deltas": func(s int64) any {
			in := plantedSet(rngFor(s, streamTrain), 32, 3, 0.05)
			return learnBody(deltaTrace(rngFor(s, streamInserts), in, 4, 8, 0.05)[2])
		},
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestDeltaTraceKeepsLiveSet(t *testing.T) {
	in := plantedSet(rngFor(3, streamTrain), 40, 3, 0.05)
	tr := deltaTrace(rngFor(3, streamInserts), in, 6, 8, 0.05)
	live := map[string]int{}
	key := func(p []float64) string { return fmt.Sprint(p) }
	for _, wp := range in {
		live[key(wp.P)]++
	}
	for b, ds := range tr {
		for _, d := range ds {
			if b%2 == 0 {
				live[key(d.Point)]++
			} else if live[key(d.Point)]--; live[key(d.Point)] < 0 {
				t.Fatalf("batch %d deletes a point that is not live", b)
			}
		}
	}
	n := 0
	for _, c := range live {
		n += c
	}
	if n != len(in) {
		t.Fatalf("live set has %d points after an even number of batches, want %d", n, len(in))
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the command prints %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layer, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer = %v, the command prints %v", layer, perLayerMetrics())
	}
	for _, d := range append(endToEndMetrics, perLayerMetrics()...) {
		if !valid.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, workloadNames())
	}
	// The open-loop rates and the latency limit are part of the
	// benchmark's definition, so the file states them.
	for _, w := range bf.Workloads {
		if !strings.HasPrefix(w.Name, "serve") {
			continue
		}
		for _, want := range []string{fmt.Sprintf("%d req/s", openLoopRate), fmt.Sprintf("%d ms", latencyLimitMS)} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("%s: why %q does not state %q", w.Name, w.Why, want)
			}
		}
		if w.Name == "serve-learn" && !strings.Contains(w.Why, fmt.Sprintf("%d batches/s", learnRate)) {
			t.Errorf("serve-learn: why %q does not state the /learn rate", w.Why)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that the output checks pass and every metric is produced.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				o := workloads[name](tinySizes, 5, 1, tr)
				if len(o.errs) > 0 || o.failed > 0 || o.attempted == 0 {
					t.Fatalf("attempted %d, failed %d, checks %v", o.attempted, o.failed, o.errs)
				}
				if !traced {
					for _, d := range endToEndMetrics {
						if v, ok := o.e2e[d.Name]; !ok || !(v > 0) {
							t.Errorf("end-to-end %s = %v, %v", d.Name, v, ok)
						}
					}
					if len(o.e2e) != len(endToEndMetrics) {
						t.Errorf("produced %d end-to-end metrics, want %d", len(o.e2e), len(endToEndMetrics))
					}
					return
				}
				listed := map[string]bool{}
				for _, d := range perLayerMetrics() {
					listed[d.Name] = true
				}
				for k := range o.layer {
					if !listed[k] {
						t.Errorf("layer metric %s is not listed", k)
					}
				}
				for _, d := range endToEndMetrics {
					if !(o.layer[tracedPrefix+d.Name] > 0) {
						t.Errorf("%s%s = %v", tracedPrefix, d.Name, o.layer[tracedPrefix+d.Name])
					}
				}
				for _, k := range []string{"problem.prepare_ms", "maxflow.solve_ms", "classidx.kernel_ns_per_pt", "classifier.anchors"} {
					if !(o.layer[k] > 0) {
						t.Errorf("%s = %v", k, o.layer[k])
					}
				}
				if strings.HasPrefix(name, "serve") && !(o.layer["serve.http_ns_per_pt"] > 0) {
					t.Errorf("serve.http_ns_per_pt = %v", o.layer["serve.http_ns_per_pt"])
				}
				if name == "serve-learn" && !(o.layer["online.resolve_ms"] > 0 && o.layer["online.exact_solves"] > 0) {
					t.Errorf("online layer metrics missing: %v", o.layer)
				}
			})
		}
	}
}

// TestWrongLabelCaught injects one flipped label into one reply and
// expects the run to fail its output checks.
func TestWrongLabelCaught(t *testing.T) {
	for _, name := range []string{"serve", "serve-learn"} {
		t.Run(name, func(t *testing.T) {
			corruptReply = func(seq int64, labels []byte) {
				if seq == 3 {
					labels[len(labels)/2] ^= 1
				}
			}
			defer func() { corruptReply = nil }()
			o := workloads[name](tinySizes, 5, 1, nil)
			if len(o.errs) == 0 || o.failed != 1 {
				t.Fatalf("a flipped label went unnoticed: failed %d, checks %v", o.failed, o.errs)
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	fillSelf(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 25, "b": 30, "c": 30, "d": 5}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestParseBatchReply(t *testing.T) {
	labels, v, err := parseBatchReply([]byte(`{"labels":[0,1,1,0],"version":12}`+"\n"), nil)
	if err != nil || v != 12 || !reflect.DeepEqual(labels, []byte{0, 1, 1, 0}) {
		t.Fatalf("got %v %d %v", labels, v, err)
	}
	if _, _, err := parseBatchReply([]byte(`{"labels":[0,2],"version":1}`), nil); err == nil {
		t.Fatal("label 2 accepted")
	}
}

func TestBatchFresh(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	// Back-to-back trains of 100 ms: an arrival waits out the rest of
	// the running train and all of the next, so staleness is uniform on
	// [100, 200) ms.
	starts := []time.Time{at(0), at(100), at(200), at(300)}
	ends := []time.Time{at(100), at(200), at(300), at(400)}
	fresh := batchFreshMS(starts, ends)
	if p50, p90 := quantile(fresh, 0.5), quantile(fresh, 0.9); math.Abs(p50-150) > 0.5 || math.Abs(p90-190) > 0.5 {
		t.Fatalf("p50 %v, p90 %v; want 150, 190", p50, p90)
	}
	if got := batchFreshMS(starts[:1], ends[:1]); len(got) != 1 || got[0] != 100 {
		t.Fatalf("single train: %v", got)
	}
}
