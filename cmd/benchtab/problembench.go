package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

// problemRow is one sweep point of -problem: prepare / first-solve /
// re-solve wall times plus memory for a single prepared instance. The
// acceptance gates are (a) the n=10⁶ row completes in a non-dense
// mode, (b) re-solve beats prepare+solve-from-raw by ≥5× at n=65536,
// and (c) explicit dense mode refuses past the footprint guard instead
// of thrashing.
type problemRow struct {
	Name           string  `json:"name"`
	N              int     `json:"n"`
	Dim            int     `json:"dim"`
	Mode           string  `json:"mode"`
	Width          int     `json:"width"`
	ExactWidth     bool    `json:"exact_width"`
	Contending     int     `json:"contending"`
	PrepareNs      float64 `json:"prepare_ns"`
	SolveNs        float64 `json:"solve_ns"`
	ResolveNs      float64 `json:"resolve_ns"`
	FromRawNs      float64 `json:"from_raw_ns"`
	ResolveSpeedup float64 `json:"resolve_speedup"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`
	RetainedBytes  uint64  `json:"retained_bytes"`
	// Per-stage prepare timings and warm-start counters, straight from
	// problem.PrepareStats, read after Width. Deferred marks a dense
	// row whose decomposition ran on that first Width call, after
	// prepare and the solves were timed: its DecomposeNs is not part of
	// PrepareNs.
	Deferred      bool   `json:"decompose_deferred,omitempty"`
	DecomposePath string `json:"decompose_path"`
	MatrixNs      int64  `json:"matrix_ns"`
	DecomposeNs   int64  `json:"decompose_ns"`
	NetworkNs     int64  `json:"network_ns"`
	SeedChains    int    `json:"seed_chains,omitempty"`
	Augmentations int    `json:"augmentations,omitempty"`
	Phases        int    `json:"phases,omitempty"`
	CertEarlyExit bool   `json:"cert_early_exit,omitempty"`
}

// problemReport is the machine-readable output of -problem.
type problemReport struct {
	GeneratedAt  string       `json:"generated_at"`
	GoVersion    string       `json:"go_version"`
	GOOS         string       `json:"goos"`
	GOARCH       string       `json:"goarch"`
	NumCPU       int          `json:"num_cpu"`
	Seed         int64        `json:"seed"`
	Rows         []problemRow `json:"rows"`
	DenseRefused bool         `json:"dense_refused_at_1m"`
	DenseRefusal string       `json:"dense_refusal"`
}

// problemWorkload generates n points on w explicit dominance chains:
// chain j holds points (t+j, …, t+w-j) so two points are comparable
// iff their parameters differ by at least |j-k|, giving a poset of
// width ≤ w at every n. Labels follow a threshold on t with coin-flip
// noise confined to a band of ≈2048 expected points around it, so the
// contending set (and therefore the flow network) stays small while
// prepare-side costs — dominance representation, chain decomposition,
// contending scan — grow with n. That isolates exactly what the sweep
// is measuring.
func problemWorkload(rng *rand.Rand, n, d, w int) geom.WeightedSet {
	const span = 64.0
	half := span * 1024.0 / float64(n) // band of ~2048 expected points
	if half > span/4 {
		half = span / 4
	}
	return bandWorkload(rng, n, d, w, half, func() bool { return rng.Intn(2) == 0 })
}

// bandNoisy is the band poset of problemWorkload with 5% label flips
// spread over the whole span instead of a narrow band: nearly every
// point contends while the width stays ≤ w, the low-width,
// large-contending-count corner where the chain-transition network is
// O(m·w) and the cover network's m×m closure is the larger build.
func bandNoisy(rng *rand.Rand, n, d, w int) geom.WeightedSet {
	return bandWorkload(rng, n, d, w, 64, func() bool { return rng.Float64() < 0.05 })
}

// bandWorkload draws problemWorkload's chains and threshold labels,
// flipping a label within half of the threshold when flip says so.
func bandWorkload(rng *rand.Rand, n, d, w int, half float64, flip func() bool) geom.WeightedSet {
	const span, theta = 64.0, 32.0
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		t := rng.Float64() * span
		j := rng.Intn(w)
		p := make(geom.Point, d)
		for k := range p {
			off := float64(j)
			if k == d-1 {
				off = float64(w - j)
			}
			p[k] = t + off
		}
		label := geom.Negative
		if t > theta {
			label = geom.Positive
		}
		if t > theta-half && t < theta+half && flip() {
			label = 1 - label
		}
		ws[i] = geom.WeightedPoint{P: p, Label: label, Weight: float64(1 + rng.Intn(4))}
	}
	return ws
}

// plantedNoisy is dataset.Planted at 5% label flips with unit weights:
// uniform points in [0,1]^d labelled by Σx > d/2. Unlike the band
// workload its width grows with n and its flips spread over the whole
// cube, so the matching, the ∞-edge network and the flow solve all do
// real work.
func plantedNoisy(rng *rand.Rand, n, d int) geom.WeightedSet {
	lps := dataset.Planted(rng, dataset.PlantedParams{N: n, D: d, Noise: 0.05})
	ws := make(geom.WeightedSet, n)
	for i, lp := range lps {
		ws[i] = geom.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	return ws
}

// trackPeakHeap samples HeapAlloc while fn runs and returns fn's
// result alongside the observed peak (resolution a few ms — good
// enough to catch transient allocations orders of magnitude above the
// retained structure, which is what the blocked/implicit modes claim
// to avoid).
func trackPeakHeap(fn func()) uint64 {
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	return peak
}

// heapBaseline GCs and returns the settled live-heap size.
func heapBaseline() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runProblemBench sweeps problem.Prepare across n (to 10⁶ in full
// mode) and matrix modes, writing the JSON report to path.
func runProblemBench(path string, seed int64, quick bool) error {
	type spec struct {
		n, d int
		mode problem.MatrixMode
		gen  string // "planted" (plantedNoisy), "bandnoisy" (bandNoisy) or "" (the band workload)
	}
	// The planted row is the one shape where matching, network and
	// flow all do real work; both modes keep it so profile-prepare
	// sees it. The band-noisy rows pair it with the same n at width
	// ≤16 and nearly every point contending, dense and on a transient
	// matrix.
	noisy := spec{16384, 3, problem.ModeDense, "planted"}
	bandDense := spec{16384, 3, problem.ModeDense, "bandnoisy"}
	specs := []spec{
		{4096, 3, problem.ModeAuto, ""},   // auto → dense
		{16384, 3, problem.ModeDense, ""}, // dense, 67 MB matrix; warm-start acceptance row
		noisy,                             // dense, width ≈1.2k, ≈15k contending
		bandDense,                         // dense, width ≤16, ≈16k contending
		{16384, 3, problem.ModeBlocked, "bandnoisy"}, // the same on a transient matrix
		{65536, 2, problem.ModeImplicit, ""},         // acceptance row for re-solve speedup
		{65536, 3, problem.ModeDense, ""},            // dense at the raised exact limit (1 GiB matrix)
		{65536, 3, problem.ModeBlocked, ""},          // blocked, exact via transient materialization
		{262144, 3, problem.ModeBlocked, ""},         // past the exact limit: greedy fallback
		{1 << 20, 2, problem.ModeImplicit, ""},       // the 10⁶ row the dense wall forbids
	}
	if quick {
		specs = []spec{
			{2048, 3, problem.ModeAuto, ""},
			{8192, 3, problem.ModeBlocked, ""},
			{16384, 2, problem.ModeImplicit, ""},
			noisy,
			bandDense,
		}
	}

	report := problemReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
	}

	const width = 16
	for _, s := range specs {
		rng := rand.New(rand.NewSource(seed))
		var ws geom.WeightedSet
		workload := ""
		switch s.gen {
		case "planted":
			ws, workload = plantedNoisy(rng, s.n, s.d), "_planted"
		case "bandnoisy":
			ws, workload = bandNoisy(rng, s.n, s.d, width), "_bandnoisy"
		default:
			ws = problemWorkload(rng, s.n, s.d, width)
		}
		opts := problem.Options{Mode: s.mode}

		base := heapBaseline()
		var p *problem.Problem
		var prepErr error
		var prepareNs float64
		peak := trackPeakHeap(func() {
			start := time.Now()
			p, prepErr = problem.Prepare(ws, opts)
			prepareNs = float64(time.Since(start).Nanoseconds())
		})
		if prepErr != nil {
			return fmt.Errorf("problem bench prepare n=%d mode=%s: %w", s.n, s.mode, prepErr)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		retained := ms.HeapAlloc - min64(ms.HeapAlloc, base)

		start := time.Now()
		sol, err := p.Solve()
		if err != nil {
			return fmt.Errorf("problem bench solve n=%d mode=%s: %w", s.n, s.mode, err)
		}
		solveNs := float64(time.Since(start).Nanoseconds())

		// Re-solve: the cached network resets and re-runs; take the best
		// of a few rounds to measure the steady state a serving gate or
		// online re-solve actually sees.
		resolveNs := 0.0
		for r := 0; r < 5; r++ {
			start = time.Now()
			again, err := p.Solve()
			if err != nil {
				return err
			}
			if again.WErr != sol.WErr {
				return fmt.Errorf("problem bench n=%d mode=%s: re-solve drifted from %g to %g", s.n, s.mode, sol.WErr, again.WErr)
			}
			if el := float64(time.Since(start).Nanoseconds()); r == 0 || el < resolveNs {
				resolveNs = el
			}
		}

		fromRaw := prepareNs + solveNs
		deferred := p.Stats().DecomposePath == problem.PathDeferred
		width := p.Width() // a dense problem decomposes here, untimed above
		pst := p.Stats()
		row := problemRow{
			Name:           fmt.Sprintf("Problem/n%d_d%d_%s%s", s.n, s.d, p.Mode(), workload),
			N:              s.n,
			Dim:            s.d,
			Mode:           p.Mode().String(),
			Width:          width,
			ExactWidth:     p.ExactWidth(),
			Contending:     p.NumContending(),
			PrepareNs:      prepareNs,
			SolveNs:        solveNs,
			ResolveNs:      resolveNs,
			FromRawNs:      fromRaw,
			ResolveSpeedup: fromRaw / resolveNs,
			PeakHeapBytes:  peak,
			RetainedBytes:  retained,
			Deferred:       deferred,
			DecomposePath:  pst.DecomposePath,
			MatrixNs:       pst.MatrixNS,
			DecomposeNs:    pst.DecomposeNS,
			NetworkNs:      pst.NetworkNS,
			SeedChains:     pst.SeedChains,
			Augmentations:  pst.Augmentations,
			Phases:         pst.Phases,
			CertEarlyExit:  pst.CertEarlyExit,
		}
		report.Rows = append(report.Rows, row)
		onDemand := ""
		if deferred {
			onDemand = "*"
		}
		fmt.Printf("%-34s prepare %10s (matrix %9s decomp %9s%1s net %9s)  solve %10s  re-solve %9s  (%.0fx)  peak %7.1f MB  width %d  %s  aug %d\n",
			row.Name,
			time.Duration(prepareNs).Round(time.Microsecond),
			time.Duration(pst.MatrixNS).Round(time.Microsecond),
			time.Duration(pst.DecomposeNS).Round(time.Microsecond), onDemand,
			time.Duration(pst.NetworkNS).Round(time.Microsecond),
			time.Duration(solveNs).Round(time.Microsecond),
			time.Duration(resolveNs).Round(time.Microsecond),
			row.ResolveSpeedup,
			float64(peak)/(1<<20),
			row.Width, row.DecomposePath, row.Augmentations)
	}

	fmt.Println("* decomposition deferred: run on the first Width call, outside prepare")

	// The dense wall itself: explicit dense mode at 10⁶ points must be
	// refused by the footprint guard (≈2 n²/64 words ≫ the 2 GiB cap),
	// not attempted.
	if _, err := problemDenseRefusal(seed); err != nil {
		report.DenseRefused = true
		report.DenseRefusal = err.Error()
		fmt.Printf("dense mode at n=1048576: refused as intended (%v)\n", err)
	} else {
		return fmt.Errorf("problem bench: dense mode at n=1048576 was not refused by the memory guard")
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// problemDenseRefusal asks for an explicit dense prepare at 10⁶
// points; the footprint guard must reject it before any allocation.
func problemDenseRefusal(seed int64) (*problem.Problem, error) {
	ws := problemWorkload(rand.New(rand.NewSource(seed)), 64, 2, 4)
	// The guard fires on n alone, so lie about nothing: hand Prepare a
	// million-point set but make the points trivial to generate.
	big := make(geom.WeightedSet, 1<<20)
	for i := range big {
		big[i] = ws[i%len(ws)]
	}
	return problem.Prepare(big, problem.Options{Mode: problem.ModeDense})
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
