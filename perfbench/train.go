package main

import (
	"fmt"
	"runtime"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
	"monoclass/internal/passive"
	"monoclass/internal/problem"
)

// checkSolver is the second max-flow solver each train run must agree
// with: Dinic's blocking flows, against the default highest-label
// push-relabel engine.
const checkSolver = "dinic"

// noisySets is how many training sets train-noisy draws from its seed
// and cycles through. One set's train time depends on the draw (one seed
// in ten trains a quarter slower than the rest), so the medians are
// taken over several draws. train-large trains one set: its time
// follows the draw far less, and four sets of 262144 points would
// double the heap the run reports.
const noisySets = 4

func trainNoisy(sz sizes, seed int64, seconds float64, tr *tracer) *outcome {
	rng := rngFor(seed, streamTrain)
	sets := make([]geom.WeightedSet, noisySets)
	for i := range sets {
		sets[i] = plantedSet(rng, sz.NoisyN, 3, 0.05)
	}
	return runTrain(sets, sz, seconds, tr)
}

func trainLarge(sz sizes, seed int64, seconds float64, tr *tracer) *outcome {
	return runTrain([]geom.WeightedSet{bandSet(rngFor(seed, streamTrain), sz.LargeN, 2, 16)}, sz, seconds, tr)
}

// trained is one Prepare + Solve.
type trained struct {
	prob *problem.Problem
	sol  passive.Solution
	dur  time.Duration
}

// train runs problem.Prepare then Problem.Solve, recording a span
// around each call and the program-reported prepare stages as children
// of the prepare span.
func train(ws geom.WeightedSet, tr *tracer, parent int64) (trained, error) {
	start := time.Now()
	sp := tr.begin("problem.Prepare", parent, 0)
	prob, err := problem.Prepare(ws, problem.Options{})
	sp.end()
	if err != nil {
		return trained{}, fmt.Errorf("prepare: %w", err)
	}
	stageSpans(tr, sp, prob.Stats())
	ss := tr.begin("maxflow.solve", parent, 0)
	sol, err := prob.Solve()
	ss.end()
	if err != nil {
		return trained{}, fmt.Errorf("solve: %w", err)
	}
	t := trained{prob: prob, sol: sol, dur: time.Since(start)}
	if tr != nil {
		// The index build runs inside Solve; rebuild it over the solved
		// anchors so its cost shows as a span of its own.
		bs := tr.begin("classidx.build", parent, 0)
		_, err := classifier.NewAnchorSet(prob.Dim(), sol.Classifier.Anchors())
		bs.end()
		if err != nil {
			return trained{}, fmt.Errorf("index build: %w", err)
		}
	}
	return t, nil
}

// stageSpans attaches PrepareStats' stage times to the prepare span.
// Prepare validates and clones first, then builds the dominance
// representation, decomposes, and ends with the network build, so the
// stages are laid end to end finishing where Prepare's total ends.
func stageSpans(tr *tracer, prep open, st problem.PrepareStats) {
	if tr == nil {
		return
	}
	at := prep.start.Add(time.Duration(st.TotalNS - st.NetworkNS - st.DecomposeNS - st.MatrixNS))
	for _, s := range []struct {
		name string
		ns   int64
	}{{"domgraph.build", st.MatrixNS}, {"chains.decompose", st.DecomposeNS}, {"passive.network", st.NetworkNS}} {
		tr.program(s.name, prep.id, at, time.Duration(s.ns))
		at = at.Add(time.Duration(s.ns))
	}
}

// checkTrained verifies one solution: the flow value, the reported
// weighted error and the weighted error recomputed point by point from
// the classifier must all be equal.
func checkTrained(o *outcome, ws geom.WeightedSet, t trained, what string) {
	werr := geom.WErr(ws, t.sol.Classifier.Classify)
	o.check(t.sol.Stats.FlowValue == t.sol.WErr && t.sol.WErr == werr,
		"%s: flow value %v, WErr %v, recomputed w-err %v differ", what, t.sol.Stats.FlowValue, t.sol.WErr, werr)
}

// classifyPasses is how many times each warm train's model scores the
// training set. One pass is one classify sample: a pass takes
// milliseconds, where a single 512-point batch takes microseconds and
// its tail would measure timer and scheduler noise.
const classifyPasses = 8

// classifyPass scores the training points in body-sized batches through
// the trained model's batch kernel and returns how long that took.
func classifyPass(tr *tracer, parent int64, m *classifier.AnchorSet, pts []geom.Point, body int, dst []geom.Label) time.Duration {
	t0 := time.Now()
	for i := 0; i < len(pts); i += body {
		j := min(i+body, len(pts))
		ks := tr.begin("classidx.kernel", parent, 0)
		m.ClassifyBatchInto(dst[i:j], pts[i:j])
		ks.end()
	}
	return time.Since(t0)
}

// runTrain is the train-* workload: minSetups trains of the first set
// from raw data as set-up, a cross-solver check, then repetitions until
// the time is up, each training the next of the sets in turn. Each repetition
// starts from a collected heap, so one repetition's garbage is not
// charged to the next; the previous model then scores its training set
// (the output checks use the labels), and a warm train follows.
func runTrain(sets []geom.WeightedSet, sz sizes, seconds float64, tr *tracer) *outcome {
	o := newOutcome()
	pts := make([][]geom.Point, len(sets))
	for j, ws := range sets {
		for _, wp := range ws {
			pts[j] = append(pts[j], wp.P)
		}
	}
	labels := make([]geom.Label, len(sets[0]))

	// Set-up: the process's first trains, back to back. The first is the
	// reference the others are checked against. (A collection between
	// them would leave the collector's pacing such that the first timed
	// repetition's heap peaks half again as high as the rest.)
	var setupS []float64
	var first trained
	for i := 1; i <= minSetups; i++ {
		t0 := time.Now()
		t, err := train(sets[0], nil, 0)
		setupS = append(setupS, time.Since(t0).Seconds())
		o.attempted++
		if err != nil {
			o.failed++
			o.check(false, "set-up %d: %v", i, err)
			return o
		}
		checkTrained(o, sets[0], t, fmt.Sprintf("set-up %d", i))
		if i == 1 {
			first = t
		} else {
			o.check(t.sol.WErr == first.sol.WErr, "set-up %d: WErr %v, set-up 1 had %v", i, t.sol.WErr, first.sol.WErr)
		}
	}
	k := first.sol.WErr

	// Once per run, outside the timed phase: a second solver must reach
	// the same optimum on the same prepared network.
	alt, err := first.prob.SolveWith(problem.SolveOptions{Solver: passive.FlowSolver(maxflow.Solvers()[checkSolver])})
	o.check(err == nil && alt.WErr == k && alt.Stats.FlowValue == k,
		"solver %s: WErr %v (err %v), default solver %v", checkSolver, alt.WErr, err, k)

	// werr[j] is set j's optimum once a train of it has finished; every
	// later train of the same set must reach the same.
	werr := map[int]float64{0: k}
	var trainMS, classifyMS []float64
	var repStarts, starts, ends []time.Time
	var classified int
	prev, prevSet, last := first.sol, 0, summarizeTrain(first)
	heap := startHeapSampler(2 * time.Millisecond)
	deadline := time.Now().Add(secondsDur(seconds))
	// A repetition starts while more than half of a typical one fits
	// before the deadline, so the phase ends at the deadline on average
	// rather than half a repetition after it.
	var repDur []time.Duration
	for rep := 1; rep == 1 || 2*time.Until(deadline) > medianDur(repDur); rep++ {
		rs := time.Now()
		runtime.GC()
		root := tr.begin("train.rep", 0, int64(rep))
		// The previous model scores the training set first, straight
		// after the collection, so no collector work lands in the passes.
		for p := 0; p < classifyPasses; p++ {
			d := classifyPass(tr, root.id, prev.Classifier, pts[prevSet], sz.Body, labels)
			classifyMS = append(classifyMS, ms(d))
			classified += len(labels)
		}
		for i, l := range labels {
			if l != prev.Assignment[i] {
				o.check(false, "train %d: batch label of point %d is %d, assignment says %d", rep-1, i, l, prev.Assignment[i])
				o.failed++
				break
			}
		}
		j := rep % len(sets)
		ts := time.Now()
		t, err := train(sets[j], tr, root.id)
		root.end()
		o.attempted++
		if err != nil {
			o.failed++
			o.check(false, "train %d: %v", rep, err)
			continue
		}
		trainMS = append(trainMS, ms(t.dur))
		repStarts, starts, ends = append(repStarts, rs), append(starts, ts), append(ends, ts.Add(t.dur))
		repDur = append(repDur, ts.Add(t.dur).Sub(rs))
		checkTrained(o, sets[j], t, fmt.Sprintf("train %d", rep))
		if w, ok := werr[j]; ok {
			o.check(t.sol.WErr == w, "train %d: WErr %v, an earlier train of set %d had %v", rep, t.sol.WErr, j, w)
		}
		werr[j] = t.sol.WErr
		prev, prevSet, last = t.sol, j, summarizeTrain(t)
	}
	heap.stopSampling()

	o.setE2E(tr, "setup_s", median(setupS))
	o.setE2E(tr, "train_s", median(trainMS)/1e3)
	// Whether a collection lands mid-train moves one repetition's peak
	// by up to half, so the figure is the median repetition's peak.
	o.setE2E(tr, "peak_heap_mb", median(heap.peaksMiB(repStarts, ends)))
	o.setE2E(tr, "classify_pts_per_s", float64(len(labels))/(median(classifyMS)/1e3))
	o.setE2E(tr, "classify_p50_ms", quantile(classifyMS, 0.5))
	fresh := batchFreshMS(starts, ends)
	o.setE2E(tr, "learn_fresh_p50_ms", quantile(fresh, 0.5))
	o.setE2E(tr, "learn_fresh_p90_ms", quantile(fresh, 0.9))
	if tr != nil {
		trainLayers(o, tr, last)
		o.layer["classidx.kernel_ns_per_pt"] = totalNS(tr.snapshot(), "classidx.kernel") / float64(classified)
	}
	return o
}

func medianDur(ds []time.Duration) time.Duration {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d)
	}
	return time.Duration(median(s))
}

// batchFreshMS is how stale a batch-trained model is for data that
// arrives at a uniformly random moment while trains run one after
// another: the data waits for the first train that starts after it
// arrives to finish. starts and ends are the repetitions' trains; the
// arrivals are spread evenly from the first start to the last. With a
// single train, the staleness is that train's duration.
func batchFreshMS(starts, ends []time.Time) []float64 {
	if len(starts) < 2 {
		var out []float64
		for i := range starts {
			out = append(out, ms(ends[i].Sub(starts[i])))
		}
		return out
	}
	const arrivals = 10000
	span := starts[len(starts)-1].Sub(starts[0])
	out := make([]float64, 0, arrivals)
	j := 1
	for a := 0; a < arrivals; a++ {
		at := starts[0].Add(span * time.Duration(a) / arrivals)
		for !starts[j].After(at) {
			j++
		}
		out = append(out, ms(ends[j].Sub(at)))
	}
	return out
}

// trainSummary is what the layer metrics need from a train, without
// keeping its Problem alive.
type trainSummary struct {
	stats      problem.PrepareStats
	contending int
	edges      int
	anchors    int
}

func summarizeTrain(t trained) trainSummary {
	return trainSummary{stats: t.prob.Stats(), contending: t.prob.NumContending(), edges: t.prob.NumEdges(), anchors: len(t.sol.Classifier.Anchors())}
}

// trainLayers fills the training-side layer metrics from the spans and
// the last train's PrepareStats.
func trainLayers(o *outcome, tr *tracer, last trainSummary) {
	spans := tr.snapshot()
	st := last.stats
	o.layer["problem.prepare_ms"] = median(durationsMS(spans, "problem.Prepare"))
	o.layer["domgraph.build_ms"] = median(durationsMS(spans, "domgraph.build"))
	o.layer["chains.decompose_ms"] = median(durationsMS(spans, "chains.decompose"))
	o.layer["passive.network_ms"] = median(durationsMS(spans, "passive.network"))
	o.layer["maxflow.solve_ms"] = median(durationsMS(spans, "maxflow.solve"))
	o.layer["classidx.build_ms"] = median(durationsMS(spans, "classidx.build"))
	o.layer["chains.width"] = float64(st.Width)
	o.layer["chains.seed_chains"] = float64(st.SeedChains)
	o.layer["matching.augmentations"] = float64(st.Augmentations)
	o.layer["matching.phases"] = float64(st.Phases)
	o.layer["passive.contending"] = float64(last.contending)
	o.layer["passive.edges"] = float64(last.edges)
	o.layer["classifier.anchors"] = float64(last.anchors)
}
