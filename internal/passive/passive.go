// Package passive solves Problem 2 (passive weighted monotone
// classification) in polynomial time, implementing Theorem 4 of the
// paper: O(dn²) to build a flow network over the contending points,
// plus one max-flow computation; the minimum cut-edge set encodes an
// optimal monotone classifier.
//
// The construction (Section 5.1):
//
//	source --w(p)--> p        for each contending label-0 point p
//	q --w(q)--> sink          for each contending label-1 point q
//	p --∞--> q                for each contending pair p ⪰ q with
//	                          label(p)=0, label(q)=1
//
// A minimum cut never uses an ∞ edge (Lemma 18); cutting (source, p)
// means mis-classifying p as 1, cutting (q, sink) means mis-classifying
// q as 0. Lemmas 16 and 17 prove the resulting assignment is monotone
// and optimal. Non-contending points keep their own labels (Lemma 15).
package passive

import (
	"fmt"
	"math"

	"monoclass/internal/chains"
	"monoclass/internal/classifier"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
	"monoclass/internal/maxflow"
)

// FlowSolver is a max-flow algorithm; any of the solvers in the
// maxflow package qualifies.
type FlowSolver func(*maxflow.Network) maxflow.Result

// Options configures Solve.
type Options struct {
	// Solver is the max-flow algorithm to use; the workspace-pooled
	// highest-label push-relabel engine (maxflow.PushRelabelHLPooled)
	// when nil.
	Solver FlowSolver
	// Dense forces the literal Section 5.1 construction with one
	// ∞ edge per dominating pair (Θ(n²) edges worst case). The
	// default constructions (the cover relation of the contending
	// points on the kernel path at d ≥ 3, the chain-transition edges
	// of sparse.go otherwise) are exactly equivalent with far fewer
	// edges; Dense exists for tests and the E9 ablation.
	Dense bool
	// Chains optionally supplies a precomputed chain decomposition of
	// the input points (index slices in ascending dominance order,
	// jointly partitioning the input). The network's ∞ edges are then
	// the chain-transition edges over it (sparse.go), O(m·w) of them,
	// and the d ≤ 2 contending scan skips its own O(n log n)
	// decomposition. Ignored when Dense is set. The decomposition need
	// not be minimum — any valid one works; a wider one only costs
	// edges.
	Chains [][]int
	// Matrix optionally supplies the precomputed dominance matrix of
	// the input points (domgraph.Build over ws's points, in input
	// order), skipping the O(dn²) relation build. When set it drives
	// the kernel contending scan at every dimension, and at d ≥ 3,
	// unless Chains is also set, the ∞ edges are the cover relation of
	// the contending points (domgraph.CoverEdges); at d ≤ 2 they follow
	// the O(n log n) decomposition. Ignored when Dense is set;
	// Matrix.N() must equal len(ws).
	//
	// Deprecated: build a problem.Problem (internal/problem) with
	// problem.Prepare or problem.Adopt instead — it owns the matrix
	// lifecycle, the chain decomposition, and the prepared network,
	// and re-solves without re-deriving any of them. This field stays
	// for compatibility and is what problem.Adopt routes through.
	Matrix *domgraph.Matrix
}

// Stats reports instance measurements from a Solve call, used by the
// experiment harness.
type Stats struct {
	N          int     // input points
	Contending int     // |P^con|
	GraphEdges int     // edges of the constructed network
	FlowValue  float64 // max-flow value == optimal weighted error
	Solver     string  // flow solver used: "pushrelabelhl-pooled" (default) or "custom"
}

// Solution is the result of solving Problem 2.
type Solution struct {
	// Classifier is an optimal monotone classifier, represented by its
	// minimal positive anchors; it is total on R^d.
	Classifier *classifier.AnchorSet
	// WErr is the optimal weighted error w-err_P(Classifier).
	WErr float64
	// Assignment holds the classifier's value on each input point, in
	// input order.
	Assignment []geom.Label
	// Stats carries instance measurements.
	Stats Stats
}

// builtGraph is the Section 5.1 network of one instance, with the
// decoding metadata Solve needs to turn a min cut back into an
// assignment.
type builtGraph struct {
	contending    []bool
	numContending int
	g             *maxflow.Network // nil when no points contend
	// owner maps finite edge ids back to input indices. Finite
	// source/sink edges are added before every ∞ edge, so their ids
	// are exactly 0..len(owner)-1 — a dense slice, not a map, because
	// the lookup sits on the cut-decode path.
	owner []int32
}

// buildGraph validates ws and constructs its flow network.
func buildGraph(ws geom.WeightedSet, opts Options) (builtGraph, error) {
	if len(ws) == 0 {
		return builtGraph{}, fmt.Errorf("passive: empty input set")
	}
	if err := ws.Validate(); err != nil {
		return builtGraph{}, err
	}

	n := len(ws)
	// Contending points (Section 5.1): a label-0 point dominating some
	// label-1 point, or a label-1 point dominated by some label-0
	// point. The dense path is the paper's literal O(dn²) scan; the
	// kernel path reads it off the matrix, and the chain path tests
	// each point against at most w chain ends (see sparse.go). The
	// mask is the same set on every path.
	var contending []bool
	var km *domgraph.Matrix // kernel path only
	var cover [][]int       // chain cover for the chain-transition edges
	pts := make([]geom.Point, n)
	for i := range ws {
		pts[i] = ws[i].P
	}
	switch {
	case opts.Dense:
		contending = make([]bool, n)
		for i := range ws {
			if ws[i].Label != geom.Negative {
				continue
			}
			for j := range ws {
				if ws[j].Label != geom.Positive {
					continue
				}
				if geom.Dominates(ws[i].P, ws[j].P) {
					contending[i] = true
					contending[j] = true
				}
			}
		}
	case opts.Matrix != nil || (opts.Chains == nil && ws.Dim() >= 3):
		// Kernel path. At d ≥ 3 no O(n log n) decomposition exists, so
		// the relation is built once as a bit-packed matrix and the
		// contending scan runs word-level, O(n²/64). A caller-supplied
		// matrix (problem.Adopt, whose matrix equals Build over the
		// points) takes the same path at any dimension. Dimensions 1
		// and 2 otherwise keep the O(n log n) chain path below, which
		// never materializes the relation at all.
		km = opts.Matrix
		if km == nil {
			km = domgraph.Build(pts)
		} else if km.N() != n {
			return builtGraph{}, fmt.Errorf("passive: supplied matrix covers %d points, want %d", km.N(), n)
		}
		switch {
		case opts.Chains != nil:
			cover = validCover(pts, opts.Chains)
		case ws.Dim() <= 2:
			cover = chains.Decompose(pts).Chains
		}
		labels := make([]geom.Label, n)
		for i := range ws {
			labels[i] = ws[i].Label
		}
		contending = km.ViolationParties(labels)
	default:
		if opts.Chains != nil {
			cover = validCover(pts, opts.Chains)
		} else {
			cover = chains.Decompose(pts).Chains
		}
		contending = contendingPoints(ws, cover)
	}

	// Vertex numbering: 0 = source, 1 = sink, contending points at 2+.
	vertex := make([]int, n)
	var sub []geom.Point // contending points, in input order
	for i := range ws {
		if contending[i] {
			vertex[i] = 2 + len(sub)
			sub = append(sub, pts[i])
		} else {
			vertex[i] = -1
		}
	}
	numContending := len(sub)
	if numContending == 0 {
		return builtGraph{contending: contending}, nil
	}

	// ∞ edges between vertex ids; their count is known before the
	// first AddEdge.
	var blocks [][]domgraph.Edge
	numEdges := numContending
	switch {
	case opts.Dense:
		// The literal pair edges are added below.
	case cover == nil:
		// Kernel path at d ≥ 3 without a decomposition: the cover
		// relation of the contending points, whose reachability is
		// exactly ⪰ with the fewest edges that give it. Its m×m sorted
		// closure takes m²/8 bytes, at most half of the n×n matrix this
		// path already holds. The kernel numbers the points of sub,
		// whose vertex ids are 2 + that index.
		blocks = domgraph.CoverEdges(sub)
		for _, b := range blocks {
			for k := range b {
				b[k].From += 2
				b[k].To += 2
			}
		}
	default:
		// Chain-transition edges over the cover (see sparse.go):
		// O(m·w) work and memory, no quadratic closure.
		dominates := func(i, j int) bool { return geom.Dominates(pts[i], pts[j]) }
		if km != nil {
			dominates = km.Dominates
		}
		blocks = sparseInfinityEdges(cover, contending, dominates)
		for _, b := range blocks {
			for k := range b {
				b[k].From = int32(vertex[b[k].From])
				b[k].To = int32(vertex[b[k].To])
			}
		}
	}
	for _, b := range blocks {
		numEdges += len(b)
	}
	const source, sink = 0, 1
	g := maxflow.New(2+numContending, source, sink)
	g.Grow(numEdges)
	owner := make([]int32, 0, numContending)
	for i := range ws {
		if !contending[i] {
			continue
		}
		switch ws[i].Label {
		case geom.Negative:
			g.AddEdge(source, vertex[i], ws[i].Weight)
		case geom.Positive:
			g.AddEdge(vertex[i], sink, ws[i].Weight)
		}
		owner = append(owner, int32(i))
	}
	if opts.Dense {
		// Literal type-3 edges: one per dominating pair.
		for i := range ws {
			if !contending[i] || ws[i].Label != geom.Negative {
				continue
			}
			for j := range ws {
				if !contending[j] || ws[j].Label != geom.Positive {
					continue
				}
				if geom.Dominates(ws[i].P, ws[j].P) {
					g.AddEdge(vertex[i], vertex[j], math.Inf(1))
				}
			}
		}
	}
	for _, b := range blocks {
		for _, e := range b {
			g.AddEdge(int(e.From), int(e.To), math.Inf(1))
		}
	}
	return builtGraph{contending: contending, numContending: numContending, g: g, owner: owner}, nil
}

// validCover returns a caller-supplied chain decomposition of pts
// after checking it; an invalid one is a caller bug.
func validCover(pts []geom.Point, cover [][]int) [][]int {
	if err := chains.ValidateDecomposition(pts, cover); err != nil {
		panic(fmt.Sprintf("passive: supplied decomposition invalid: %v", err))
	}
	return cover
}

// BuildNetwork constructs the Section 5.1 flow network of ws without
// solving it: exactly the instance Solve hands its max-flow solver.
// It returns nil (and no error) when no points contend — then the
// input is already monotone-consistent and there is nothing to cut.
// Benchmarks and tools use this to exercise flow solvers on genuine
// passive-construction topologies.
func BuildNetwork(ws geom.WeightedSet, opts Options) (*maxflow.Network, error) {
	bg, err := buildGraph(ws, opts)
	if err != nil {
		return nil, err
	}
	return bg.g, nil
}

// Solve computes an optimal monotone classifier for the fully-labeled
// weighted set ws. The input must be non-empty, dimensionally
// consistent, and carry positive finite weights. Solve is exactly
// Prepare followed by one Resolve; callers that re-solve the same
// instance keep the Prepared (or a problem.Problem wrapping one) and
// skip the network reconstruction.
func Solve(ws geom.WeightedSet, opts Options) (Solution, error) {
	pp, err := Prepare(ws, opts)
	if err != nil {
		return Solution{}, err
	}
	return pp.Resolve(opts.Solver)
}

// OptimalError returns just the optimal weighted error k* of ws,
// i.e. min over monotone h of w-err_P(h).
func OptimalError(ws geom.WeightedSet) (float64, error) {
	sol, err := Solve(ws, Options{})
	if err != nil {
		return 0, err
	}
	return sol.WErr, nil
}
