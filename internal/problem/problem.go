// Package problem owns the prepared form of one monotone-classification
// instance: the points, their dominance representation, a chain
// decomposition, and the Section 5.1 flow network, built once and
// shared by every solver layer — passive solves, audits, conformance
// differentials, the online updater, and serving gates all accept a
// *Problem instead of re-deriving the same structure from raw points.
//
// A Problem is immutable after Prepare: accessors never mutate it and
// repeated Solve calls are deterministic (the one mutable piece, the
// flow network's residual state, is reset under an internal mutex).
// At d ≥ 3 a Problem that holds the n×n matrix — dense, or
// materialized transiently for an exact decomposition — builds its
// network from the matrix alone: the cover relation of the contending
// points, whose m×m closure is at most half the matrix the footprint
// guard admitted. A dense one therefore computes its decomposition on
// first use, by Decomposition, Width, ExactWidth, Write or an audit,
// once, and a train that only solves never pays for the matching.
// Every other Problem (d ≤ 2, or past the exact-decomposition limits)
// networks along its chains: passive's chain-transition edges, O(m·w)
// with no quadratic memory.
// The dominance representation is chosen by MatrixMode: dense keeps
// the full bit-packed matrix (the classic O(n²/64)-word layout),
// blocked materializes cache-sized row tiles on demand behind an LRU,
// and implicit answers dominance queries from per-dimension rank
// arrays without materializing anything. Auto picks dense up to
// DenseLimit points and blocked/implicit past it, so the n²/64 memory
// wall never stops Prepare. Prepare builds the dense matrix, which the
// decomposition and the network read; a blocked or implicit view is
// built on first use, since neither the d ≤ 2 fast path nor the
// greedy fallback reads it.
package problem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/passive"
)

// MatrixMode selects the dominance representation of a Problem.
type MatrixMode int

const (
	// ModeAuto picks dense while the matrix fits (n ≤ DenseLimit and
	// under MaxDenseBytes), then blocked for d ≥ 3 and implicit for
	// d ≤ 2.
	ModeAuto MatrixMode = iota
	// ModeDense materializes the full bit-packed matrix (domgraph.Build);
	// Prepare refuses when it would exceed MaxDenseBytes.
	ModeDense
	// ModeBlocked materializes the matrix in cache-sized row tiles on
	// demand, behind an LRU of tiles (domgraph.Blocked).
	ModeBlocked
	// ModeImplicit never materializes bits: dominance queries are
	// answered from per-dimension rank arrays (domgraph.Implicit).
	ModeImplicit
)

// String returns the mode's flag spelling: auto, dense, blocked,
// implicit.
func (m MatrixMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeDense:
		return "dense"
	case ModeBlocked:
		return "blocked"
	case ModeImplicit:
		return "implicit"
	}
	return fmt.Sprintf("MatrixMode(%d)", int(m))
}

// ParseMode is String's inverse, for flags and the serialized format.
func ParseMode(s string) (MatrixMode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "dense":
		return ModeDense, nil
	case "blocked":
		return ModeBlocked, nil
	case "implicit":
		return ModeImplicit, nil
	}
	return 0, fmt.Errorf("problem: unknown matrix mode %q (want auto, dense, blocked, or implicit)", s)
}

// Tuning defaults; zero Options fields resolve to these.
const (
	// DefaultDenseLimit is the auto-mode point-count threshold past
	// which Prepare stops materializing the dense matrix (1 GiB of
	// dom+dag words at the limit).
	DefaultDenseLimit = 65536
	// DefaultMaxDenseBytes caps the dense matrix footprint: explicit
	// ModeDense refuses past it, ModeAuto falls through to a
	// non-materializing mode.
	DefaultMaxDenseBytes = int64(2) << 30
	// DefaultExactDecomposeLimit is the largest n at which a
	// non-dense Problem at d ≥ 3 still materializes the matrix
	// transiently to compute an exact minimum chain decomposition;
	// past it (or past the dense-footprint guard), GreedyDecompose
	// supplies a valid (possibly wider) cover and Stats records the
	// fallback. Raised from 16384 once the matching was warm-started
	// from the greedy cover: exact width now costs only the
	// seed-to-optimum augmentation gap on top of the greedy cover
	// instead of O(√n) cold Hopcroft–Karp phases, so the transient
	// matrix build — not the matching — bounds the practical limit.
	DefaultExactDecomposeLimit = 65536
	// streamCountLimit is the largest n at which Violations streams
	// packed rows out of a non-dense view; past it the chain-counting
	// method avoids the O(n²) row scan entirely.
	streamCountLimit = 262144
)

// Options configures Prepare.
type Options struct {
	// Mode selects the dominance representation; ModeAuto (the zero
	// value) picks one by instance size.
	Mode MatrixMode
	// DenseLimit overrides the auto-mode dense threshold (points);
	// DefaultDenseLimit when zero.
	DenseLimit int
	// MaxDenseBytes overrides the dense footprint guard;
	// DefaultMaxDenseBytes when zero.
	MaxDenseBytes int64
	// ExactDecomposeLimit overrides the exact-decomposition threshold
	// for non-dense d ≥ 3 instances; DefaultExactDecomposeLimit when
	// zero.
	ExactDecomposeLimit int
	// Blocked tunes the tile cache in ModeBlocked (defaults apply
	// per-field, see domgraph.BlockedConfig).
	Blocked domgraph.BlockedConfig
}

func (o Options) withDefaults() Options {
	if o.DenseLimit == 0 {
		o.DenseLimit = DefaultDenseLimit
	}
	if o.MaxDenseBytes == 0 {
		o.MaxDenseBytes = DefaultMaxDenseBytes
	}
	if o.ExactDecomposeLimit == 0 {
		o.ExactDecomposeLimit = DefaultExactDecomposeLimit
	}
	return o
}

// Decomposition path names recorded in PrepareStats.DecomposePath.
const (
	// PathFast2D: the d ≤ 2 O(n log n) construction; always exact.
	PathFast2D = "fast-2d"
	// PathExactDense: warm-started matching over the retained dense
	// matrix; exact.
	PathExactDense = "exact-dense"
	// PathExactTransient: non-dense mode that materialized the matrix
	// transiently for the warm-started matching; exact.
	PathExactTransient = "exact-transient"
	// PathGreedyFallback: past ExactDecomposeLimit (or the dense
	// footprint guard) — first-fit cover, possibly wider than the true
	// width. The one path where ExactWidth is false.
	PathGreedyFallback = "greedy-fallback"
	// PathAdopted: decomposition computed from a caller-supplied matrix
	// (problem.Adopt); exact.
	PathAdopted = "adopted"
	// PathLoaded: decomposition restored verbatim from a serialized
	// Problem (problem.Read); exactness is whatever the writer recorded.
	PathLoaded = "loaded"
	// PathDeferred: a dense Problem at d ≥ 3 whose decomposition has
	// not been asked for yet (see Problem.Stats); the first use
	// computes it and the path becomes exact-dense or adopted.
	PathDeferred = "deferred"
)

// PrepareStats records how Prepare built a Problem and how long each
// stage took; benchtab's problem table, monoclass prepare, and the
// serve /stats endpoint all surface it. The zero TotalNS of a loaded
// Problem distinguishes restored instances from freshly prepared ones.
// While a dense Problem's decomposition is deferred, DecomposePath is
// PathDeferred and Width through DecomposeNS are zero.
type PrepareStats struct {
	// N and Dim echo the instance shape.
	N   int `json:"n"`
	Dim int `json:"d"`
	// Mode is the resolved matrix mode (never ModeAuto).
	Mode string `json:"mode"`
	// Width is the decomposition's chain count; ExactWidth reports
	// whether that is the true dominance width or a greedy upper bound.
	Width      int  `json:"width"`
	ExactWidth bool `json:"exact_width"`
	// DecomposePath names which decomposition route ran (Path*
	// constants) — the greedy fallback is no longer silent.
	DecomposePath string `json:"decompose_path"`
	// SeedChains, Augmentations, Phases, and CertEarlyExit mirror
	// chains.DecomposeStats for the exact matrix paths: the warm-start
	// seed's chain count, the augmenting paths needed on top of it
	// (exactly SeedChains − Width), the BFS phases run, and whether the
	// antichain certificate proved the seed optimal with no matching
	// work at all.
	SeedChains    int  `json:"seed_chains,omitempty"`
	Augmentations int  `json:"augmentations,omitempty"`
	Phases        int  `json:"phases,omitempty"`
	CertEarlyExit bool `json:"cert_early_exit,omitempty"`
	// Per-stage wall times: dominance representation build, chain
	// decomposition (including a transient materialization when the
	// path is exact-transient), flow-network construction, and the
	// whole Prepare call end to end. MatrixNS is zero when Prepare
	// built no view (the d ≤ 2 fast path and the greedy fallback leave
	// a blocked or implicit view to the first View call). A
	// decomposition computed on first use reports its own DecomposeNS,
	// which is not part of TotalNS.
	MatrixNS    int64 `json:"matrix_ns"`
	DecomposeNS int64 `json:"decompose_ns"`
	NetworkNS   int64 `json:"network_ns"`
	TotalNS     int64 `json:"total_ns"`
}

// SolveOptions configures one Solve call over a prepared Problem.
type SolveOptions struct {
	// Solver is the max-flow algorithm; the default workspace-pooled
	// push-relabel engine when nil (exactly passive.Solve's default,
	// so a Problem solve is bit-identical to the legacy path).
	Solver passive.FlowSolver
}

// Problem is one prepared instance. It is immutable after Prepare /
// Adopt / Read; Solve, Violations and View are safe for concurrent
// use.
type Problem struct {
	ws      geom.WeightedSet // owned (Prepare clones; Adopt documents aliasing)
	pts     []geom.Point     // ws[i].P, in input order
	dim     int
	mode    MatrixMode             // resolved, never ModeAuto
	matrix  *domgraph.Matrix       // non-nil iff mode is dense (then it is the view)
	blocked domgraph.BlockedConfig // tile-cache tuning of a blocked view

	viewOnce sync.Once
	view     domgraph.View // non-dense view, built by the first View call

	// The decomposition is set inside decOnce: by the constructor on
	// the eager paths, by the first decomposition call on the deferred
	// ones (decPath names which). decStats, the decomposition fields of
	// Stats, is stored last, so Stats sees it without triggering it.
	decOnce    sync.Once
	decPath    string
	dec        chains.Decomposition
	exactWidth bool // dec is a minimum decomposition (width = dominance width)
	decStats   atomic.Pointer[PrepareStats]
	stats      PrepareStats // every other field of Stats

	prep *passive.Prepared

	mu           sync.Mutex // guards prep's network state and the lazy fields
	violations   int
	violationsOK bool
}

// Prepare validates ws, clones it, and builds the full prepared form:
// the dominance representation picked by opts, a chain decomposition
// (exact below the mode's limits, greedy above; deferred to first use
// in dense mode at d ≥ 3), and the passive flow network. The input set
// must be non-empty, dimensionally consistent, and carry positive
// finite weights.
//
// The profiles are chosen so that Solve over the result is
// bit-identical to passive.Solve(ws, passive.Options{}) whenever the
// decomposition is exact — the problem-prepared-vs-legacy conformance
// check holds it to that in all three modes.
func Prepare(ws geom.WeightedSet, opts Options) (*Problem, error) {
	start := time.Now()
	if len(ws) == 0 {
		return nil, fmt.Errorf("problem: empty input set")
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()

	owned := make(geom.WeightedSet, len(ws))
	for i, wp := range ws {
		owned[i] = geom.WeightedPoint{P: wp.P.Clone(), Label: wp.Label, Weight: wp.Weight}
	}
	pts := pointsOf(owned)
	n, d := len(owned), owned.Dim()

	mode, err := resolveMode(o, n)
	if err != nil {
		return nil, err
	}
	if mode == ModeAuto {
		if n <= o.DenseLimit && denseFootprint(n) <= o.MaxDenseBytes {
			mode = ModeDense
		} else if d >= 3 {
			mode = ModeBlocked
		} else {
			mode = ModeImplicit
		}
	}

	p := &Problem{ws: owned, pts: pts, dim: d, mode: mode, blocked: o.Blocked}
	// Only the dense network and the exact-transient decomposition
	// read a view; every other path leaves it to the first View call.
	transient := exactTransient(o, mode, n, d)
	var st PrepareStats
	if mode == ModeDense || transient {
		matrixStart := time.Now()
		if mode == ModeDense {
			p.matrix = domgraph.Build(pts)
		} else {
			p.View()
		}
		st.MatrixNS = time.Since(matrixStart).Nanoseconds()
	}

	// The dense network reads only the matrix, so its decomposition
	// waits for a caller that asks.
	if mode == ModeDense && d >= 3 {
		p.decPath = PathExactDense
		return p.assemble(p.matrix, nil, st, start)
	}
	decStart := time.Now()
	var dec chains.Decomposition
	var dst chains.DecomposeStats
	var netMatrix *domgraph.Matrix
	path, exact := "", true
	switch {
	case d <= 2:
		// O(n log n) fast paths; never touch the matrix.
		dec = chains.Decompose(pts)
		path = PathFast2D
	case transient:
		// Materialize transiently for the exact warm-started cover; the
		// matrix (== domgraph.Build's bits) also drives the network, as
		// in dense mode, and is dropped after assemble.
		netMatrix = p.View().Materialize()
		dec, dst = chains.DecomposeMatrixStats(pts, netMatrix)
		path = PathExactTransient
	default:
		gc := chains.GreedyDecompose(pts)
		dec = chains.Decomposition{Chains: gc, Width: len(gc)}
		path = PathGreedyFallback
		exact = false
	}
	p.decOnce.Do(func() { p.setDecomposition(dec, dst, exact, path, time.Since(decStart)) })
	return p.assemble(netMatrix, dec.Chains, st, start)
}

// Adopt wraps an already-built dense matrix (domgraph.Build over ws's
// points, in input order — the online updater's dynamically patched
// relation qualifies) into a Problem without cloning ws or rebuilding
// anything: the network is exactly what passive.Solve(ws,
// passive.Options{Matrix: m}) constructs. At d ≥ 3 that is the cover
// network and the decomposition comes from the matrix on first use; at
// d ≤ 2 the O(n log n) decomposition runs now and the network follows
// its chains. The caller must not mutate ws or m afterwards.
func Adopt(ws geom.WeightedSet, m *domgraph.Matrix) (*Problem, error) {
	start := time.Now()
	if len(ws) == 0 {
		return nil, fmt.Errorf("problem: empty input set")
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	if m.N() != len(ws) {
		return nil, fmt.Errorf("problem: matrix covers %d points, want %d", m.N(), len(ws))
	}
	p := &Problem{ws: ws, pts: pointsOf(ws), dim: ws.Dim(), mode: ModeDense, matrix: m, decPath: PathAdopted}
	if p.dim >= 3 {
		return p.assemble(m, nil, PrepareStats{}, start)
	}
	return p.assemble(nil, p.decomposition().Chains, PrepareStats{}, start)
}

// assemble builds the passive network and finishes construction of p,
// whose points, mode and (dense) matrix are already set. At d ≥ 3 a
// netMatrix (possibly transient) drives the kernel path — contending
// scan and cover network, exactly passive.Solve's own d ≥ 3 network —
// and cover is unused; otherwise the network follows cover, p's chain
// decomposition. At d ≤ 2 legacy Solve never materializes a matrix,
// so neither do we: the chain path is the reference there. st carries
// the stage timings accumulated so far; assemble adds the network
// stage and the end-to-end total from start.
func (p *Problem) assemble(netMatrix *domgraph.Matrix, cover [][]int, st PrepareStats, start time.Time) (*Problem, error) {
	netStart := time.Now()
	popts := passive.Options{Chains: cover}
	if netMatrix != nil && p.dim >= 3 {
		popts = passive.Options{Matrix: netMatrix}
	}
	prep, err := passive.Prepare(p.ws, popts)
	if err != nil {
		return nil, err
	}
	st.NetworkNS = time.Since(netStart).Nanoseconds()
	st.TotalNS = time.Since(start).Nanoseconds()
	st.N, st.Dim = len(p.ws), p.dim
	st.Mode = p.mode.String()
	p.stats, p.prep = st, prep
	return p, nil
}

// setDecomposition records a computed decomposition; it runs inside
// decOnce.
func (p *Problem) setDecomposition(dec chains.Decomposition, dst chains.DecomposeStats, exact bool, path string, took time.Duration) {
	p.dec, p.exactWidth = dec, exact
	p.decStats.Store(&PrepareStats{
		Width:         dec.Width,
		ExactWidth:    exact,
		DecomposePath: path,
		SeedChains:    dst.SeedChains,
		Augmentations: dst.Augmentations,
		Phases:        dst.Phases,
		CertEarlyExit: dst.CertEarlyExit,
		DecomposeNS:   took.Nanoseconds(),
	})
}

// decomposition returns the chain decomposition, computing a deferred
// one on the first call; the result aliases p.
func (p *Problem) decomposition() chains.Decomposition {
	p.decOnce.Do(func() {
		start := time.Now()
		var dec chains.Decomposition
		var dst chains.DecomposeStats
		if p.dim <= 2 {
			// Adopt at d ≤ 2: the O(n log n) decomposition, the one
			// passive's kernel path also uses there.
			dec = chains.Decompose(p.pts)
		} else {
			dec, dst = chains.DecomposeMatrixStats(p.pts, p.matrix)
		}
		p.setDecomposition(dec, dst, true, p.decPath, time.Since(start))
	})
	return p.dec
}

func pointsOf(ws geom.WeightedSet) []geom.Point {
	pts := make([]geom.Point, len(ws))
	for i := range ws {
		pts[i] = ws[i].P
	}
	return pts
}

// exactTransient reports whether a Problem of n points at dimension d
// in mode, under the resolved options o, materializes the matrix
// transiently for an exact decomposition (and its network).
func exactTransient(o Options, mode MatrixMode, n, d int) bool {
	return mode != ModeDense && d >= 3 && n <= o.ExactDecomposeLimit && denseFootprint(n) <= o.MaxDenseBytes
}

// denseFootprint returns the dom+dag byte cost of a dense matrix over
// n points.
func denseFootprint(n int) int64 {
	words := int64((n + 63) / 64)
	return 2 * int64(n) * words * 8
}

// resolveMode rejects an explicit dense request past the memory guard;
// ModeAuto passes through for the caller to resolve.
func resolveMode(o Options, n int) (MatrixMode, error) {
	if o.Mode == ModeDense {
		if fp := denseFootprint(n); fp > o.MaxDenseBytes {
			return 0, fmt.Errorf("problem: dense matrix over %d points needs %d bytes, above the %d-byte guard; use blocked or implicit mode", n, fp, o.MaxDenseBytes)
		}
	}
	return o.Mode, nil
}

// N returns the instance size.
func (p *Problem) N() int { return len(p.ws) }

// Dim returns the dimensionality.
func (p *Problem) Dim() int { return p.dim }

// Mode returns the resolved matrix mode (never ModeAuto).
func (p *Problem) Mode() MatrixMode { return p.mode }

// WeightedSet returns the instance's weighted point set, in input
// order. The caller must not modify it.
func (p *Problem) WeightedSet() geom.WeightedSet { return p.ws }

// Points returns the instance's points, in input order. The caller
// must not modify them.
func (p *Problem) Points() []geom.Point { return p.pts }

// Labels returns a copy of the instance's labels, in input order.
func (p *Problem) Labels() []geom.Label {
	labels := make([]geom.Label, len(p.ws))
	for i := range p.ws {
		labels[i] = p.ws[i].Label
	}
	return labels
}

// View returns the dominance representation. All modes answer exactly
// the bits of domgraph.BuildNaive over Points. In dense mode it is the
// matrix; otherwise the blocked or implicit view is built by the first
// call, once, and shared by every later one.
func (p *Problem) View() domgraph.View {
	if p.matrix != nil {
		return p.matrix
	}
	p.viewOnce.Do(func() {
		if p.mode == ModeBlocked {
			p.view = domgraph.NewBlocked(p.pts, p.blocked)
		} else {
			p.view = domgraph.NewImplicit(p.pts)
		}
	})
	return p.view
}

// Matrix returns the dense matrix, or nil when the mode does not
// materialize one.
func (p *Problem) Matrix() *domgraph.Matrix { return p.matrix }

// Decomposition returns a deep copy of the chain decomposition,
// computing it on first use (see the package comment).
func (p *Problem) Decomposition() chains.Decomposition {
	dec := p.decomposition()
	cp := chains.Decomposition{
		Chains:    make([][]int, len(dec.Chains)),
		Width:     dec.Width,
		Antichain: append([]int(nil), dec.Antichain...),
	}
	for i, c := range dec.Chains {
		cp.Chains[i] = append([]int(nil), c...)
	}
	return cp
}

// Width returns the decomposition's chain count; the dominance width
// when ExactWidth reports true. It computes a deferred decomposition.
func (p *Problem) Width() int { return p.decomposition().Width }

// ExactWidth reports whether the decomposition is minimum (Dilworth
// width) rather than a greedy valid cover. It computes a deferred
// decomposition.
func (p *Problem) ExactWidth() bool {
	p.decomposition()
	return p.exactWidth
}

// Stats returns the prepare instrumentation: per-stage wall times,
// the decomposition path taken (exact vs the greedy fallback), and the
// warm-start work counters. Loaded Problems carry PathLoaded with zero
// timings. Stats never computes a deferred decomposition: until the
// first use it reports PathDeferred with zero decomposition fields.
func (p *Problem) Stats() PrepareStats {
	st := p.stats
	d := p.decStats.Load()
	if d == nil {
		st.DecomposePath = PathDeferred
		return st
	}
	st.Width, st.ExactWidth, st.DecomposePath = d.Width, d.ExactWidth, d.DecomposePath
	st.SeedChains, st.Augmentations, st.Phases, st.CertEarlyExit = d.SeedChains, d.Augmentations, d.Phases, d.CertEarlyExit
	st.DecomposeNS = d.DecomposeNS
	return st
}

// Contending returns a copy of the contending-point mask.
func (p *Problem) Contending() []bool { return p.prep.Contending() }

// NumContending returns |P^con|.
func (p *Problem) NumContending() int { return p.prep.NumContending() }

// NumEdges returns the prepared flow network's edge count.
func (p *Problem) NumEdges() int { return p.prep.NumEdges() }

// Solve re-solves the prepared network with the default flow solver —
// bit-identical to passive.Solve(WeightedSet(), passive.Options{}) at
// a fraction of the cost: the validation, contending scan and network
// build are all amortized into Prepare, and the solve never reads the
// decomposition.
func (p *Problem) Solve() (passive.Solution, error) {
	return p.SolveWith(SolveOptions{})
}

// SolveWith is Solve with an explicit flow solver.
func (p *Problem) SolveWith(opts SolveOptions) (passive.Solution, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prep.Resolve(opts.Solver)
}

// Violations returns the number of (negative, positive) ordered pairs
// where the negative point dominates the positive one — the quantity
// domgraph.(*Matrix).CountViolations reports — computed by the
// cheapest route the mode allows and cached.
func (p *Problem) Violations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.violationsOK {
		return p.violations
	}
	labels := make([]geom.Label, len(p.ws))
	for i := range p.ws {
		labels[i] = p.ws[i].Label
	}
	switch {
	case p.matrix != nil:
		p.violations = p.matrix.CountViolations(labels)
	case len(p.ws) <= streamCountLimit:
		p.violations = domgraph.ViewCountViolations(p.View(), labels)
	default:
		p.violations = chainCountViolations(p.pts, labels, p.decomposition().Chains)
	}
	p.violationsOK = true
	return p.violations
}

// chainCountViolations counts dominance violations through the chain
// decomposition instead of the O(n²) relation: along a chain (ascending
// dominance order) the members dominated by any fixed point form a
// prefix, by transitivity, so one binary search per (negative, chain)
// pair plus per-chain positive-prefix sums gives the exact pair count
// in O(n · w · d · log n).
func chainCountViolations(pts []geom.Point, labels []geom.Label, chainSets [][]int) int {
	prefixes := make([][]int32, len(chainSets))
	for c, ch := range chainSets {
		pre := make([]int32, len(ch)+1)
		for k, idx := range ch {
			pre[k+1] = pre[k]
			if labels[idx] == geom.Positive {
				pre[k+1]++
			}
		}
		prefixes[c] = pre
	}
	total := 0
	for i, lb := range labels {
		if lb != geom.Negative {
			continue
		}
		for c, ch := range chainSets {
			lo, hi := 0, len(ch)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if geom.Dominates(pts[i], pts[ch[mid]]) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			total += int(prefixes[c][lo])
		}
	}
	return total
}
