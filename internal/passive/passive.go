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
	// default sparse construction (see sparse.go) is exactly
	// equivalent but uses O(n·w) edges; Dense exists for tests and
	// the E9 ablation.
	Dense bool
	// Chains optionally supplies a precomputed chain decomposition of
	// the input points (index slices in ascending dominance order,
	// jointly partitioning the input) for the sparse construction,
	// saving the O(dn²)–O(n log n) decomposition when the caller
	// already has one. Ignored when Dense is set. The decomposition
	// need not be minimum — any valid one works; a wider one only
	// costs edges.
	Chains [][]int
	// Matrix optionally supplies the precomputed dominance matrix of
	// the input points (domgraph.Build over ws's points, in input
	// order), skipping the O(dn²) relation build. When set it drives
	// the kernel path at every dimension, so two Solve calls over the
	// same multiset with the same Matrix construct bit-identical
	// networks. When Chains is also set, the supplied decomposition is
	// adopted instead of re-deriving one from the matrix. Ignored when
	// Dense is set; Matrix.N() must equal len(ws).
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
	// kernel paths read it off the matrix, and the chain path tests
	// each point against at most w chain ends (see sparse.go).
	var contending []bool
	var ci chainIndex
	var km *domgraph.Matrix       // non-nil on the kernel path
	var kdec chains.Decomposition // its chain decomposition
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
	case opts.Matrix != nil:
		// Caller-supplied relation: same kernel path as below, minus
		// the Build. Used by problem.Adopt (and historically by the
		// online updater directly), whose dynamically patched matrix
		// equals Build over the live points.
		if opts.Matrix.N() != n {
			return builtGraph{}, fmt.Errorf("passive: supplied matrix covers %d points, want %d", opts.Matrix.N(), n)
		}
		pts := make([]geom.Point, n)
		labels := make([]geom.Label, n)
		for i := range ws {
			pts[i] = ws[i].P
			labels[i] = ws[i].Label
		}
		km = opts.Matrix
		if opts.Chains != nil {
			// Adopt the caller's decomposition (problem.Prepare hands
			// back the one it derived from this very matrix) instead of
			// repeating the O(n^2.5) matching.
			if err := chains.ValidateDecomposition(pts, opts.Chains); err != nil {
				panic(fmt.Sprintf("passive: supplied decomposition invalid: %v", err))
			}
			kdec = chains.Decomposition{Chains: opts.Chains, Width: len(opts.Chains)}
		} else {
			kdec = chains.DecomposeMatrix(pts, km)
		}
		contending = km.ViolationParties(labels)
	case opts.Chains == nil && ws.Dim() >= 3:
		// Kernel path: the generic decomposition needs the O(dn²)
		// dominance relation anyway, so build it once as a bit-packed
		// matrix and reuse it for the chain decomposition, the
		// contending scan (word-level, O(n²/64)), and the ∞-edge
		// builder. Dimensions 1 and 2 keep the O(n log n) chain fast
		// paths below, which never materialize the relation at all.
		pts := make([]geom.Point, n)
		labels := make([]geom.Label, n)
		for i := range ws {
			pts[i] = ws[i].P
			labels[i] = ws[i].Label
		}
		km = domgraph.Build(pts)
		kdec = chains.DecomposeMatrix(pts, km)
		contending = km.ViolationParties(labels)
	default:
		ci = buildChainIndex(ws, opts.Chains)
		contending = contendingPoints(ws, &ci)
	}

	// Vertex numbering: 0 = source, 1 = sink, contending points at 2+.
	vertex := make([]int, n)
	nextV := 2
	for i := range ws {
		if contending[i] {
			vertex[i] = nextV
			nextV++
		} else {
			vertex[i] = -1
		}
	}
	numContending := nextV - 2
	if numContending == 0 {
		return builtGraph{contending: contending}, nil
	}

	const source, sink = 0, 1
	g := maxflow.New(nextV, source, sink)
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
	} else if km != nil {
		// Sparsified reachability network on the kernel matrix.
		for _, e := range sparseInfinityEdgesMatrix(km, kdec, contending) {
			g.AddEdge(vertex[e.from], vertex[e.to], math.Inf(1))
		}
	} else {
		// Sparsified reachability network (see sparse.go).
		for _, e := range sparseInfinityEdges(ws, &ci, contending) {
			g.AddEdge(vertex[e.from], vertex[e.to], math.Inf(1))
		}
	}
	return builtGraph{contending: contending, numContending: numContending, g: g, owner: owner}, nil
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
