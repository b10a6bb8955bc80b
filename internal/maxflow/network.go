// Package maxflow implements the max-flow / min-cut substrate of
// Section 2 and Section 5 of the paper: Dinic's algorithm, two
// Goldberg–Tarjan push-relabel variants (FIFO with the gap heuristic,
// and highest-label with periodic global relabeling — the practical
// workhorse), Edmonds–Karp and capacity scaling as independently
// simple references, plus extraction of a minimum-weight cut-edge set
// via the residual reachability construction in the proof of Lemma 8.
//
// The residual graph lives in a compressed-sparse-row (CSR) arc pool:
// prepare() finalizes the added edges into flat arrays where every
// vertex's arcs are contiguous (arcStart[u]..arcStart[u+1]), so the
// hot loops of every solver — and of SourceSide — walk sequential
// memory instead of chasing a slice-of-slices adjacency. A Workspace
// (see workspace.go) makes repeated solves allocation-free.
//
// Capacities are float64 and may be math.Inf(1); infinite capacities
// are internally replaced by a finite value exceeding every possible
// cut weight, which never changes a (finite) min cut. Lemma 18 of the
// paper guarantees that the passive-classification networks never cut
// such an edge, and CutEdges verifies this at runtime.
package maxflow

import (
	"fmt"
	"math"
	"slices"
)

// Network is a flow network over vertices 0..n-1 with designated
// source and sink. AddEdge records edges into flat per-edge arrays;
// the first solve finalizes them into the CSR arc pool (prepare), and
// arcs are addressed by their CSR index from then on. Each edge
// contributes a forward arc and a reverse arc (arcRev maps between
// them); residual capacities live in arcCap.
type Network struct {
	n            int
	source, sink int

	// Per-edge ingestion arrays, in AddEdge order (edge id = index).
	eu, ev    []int32   // endpoints
	ecap      []float64 // capacity as given (may be +Inf)
	einf      []bool    // added with cap = +Inf
	finiteSum float64   // sum of finite capacities

	// CSR arc pool, built by prepare. Arc a has target arcTo[a],
	// residual capacity arcCap[a], and reverse arc arcRev[a]; the arcs
	// of vertex u are arcStart[u]..arcStart[u+1].
	prepared bool
	huge     float64 // finiteSum + 1: stands in for +Inf
	arcStart []int32 // len n+1
	arcTo    []int32 // len 2·NumEdges
	arcRev   []int32
	arcCap   []float64
	edgeArc  []int32 // edge id -> its forward arc
}

// New creates a network with n vertices, a source, and a sink. Source
// and sink must be distinct in-range vertices.
func New(n, source, sink int) *Network {
	if n < 2 {
		panic(fmt.Sprintf("maxflow: need at least 2 vertices, got %d", n))
	}
	if source < 0 || source >= n || sink < 0 || sink >= n || source == sink {
		panic(fmt.Sprintf("maxflow: bad source/sink %d/%d for n=%d", source, sink, n))
	}
	return &Network{n: n, source: source, sink: sink}
}

// NumVertices returns the number of vertices.
func (g *Network) NumVertices() int { return g.n }

// NumEdges returns the number of added (forward) edges.
func (g *Network) NumEdges() int { return len(g.eu) }

// Source returns the source vertex.
func (g *Network) Source() int { return g.source }

// Sink returns the sink vertex.
func (g *Network) Sink() int { return g.sink }

// Grow reserves room for m more AddEdge calls, so a caller that knows
// its edge count up front fills the per-edge arrays without
// reallocating them.
func (g *Network) Grow(m int) {
	g.eu = slices.Grow(g.eu, m)
	g.ev = slices.Grow(g.ev, m)
	g.ecap = slices.Grow(g.ecap, m)
	g.einf = slices.Grow(g.einf, m)
}

// AddEdge adds a directed edge u -> v with the given capacity, which
// must be non-negative and may be +Inf. It returns an edge identifier
// usable with Flow and in CutEdge reports. Adding edges after a solver
// has run panics.
func (g *Network) AddEdge(u, v int, capacity float64) int {
	if g.prepared {
		panic("maxflow: AddEdge after solving")
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range for n=%d", u, v, g.n))
	}
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("maxflow: invalid capacity %g", capacity))
	}
	id := len(g.eu)
	inf := math.IsInf(capacity, 1)
	if !inf {
		g.finiteSum += capacity
	}
	g.eu = append(g.eu, int32(u))
	g.ev = append(g.ev, int32(v))
	g.ecap = append(g.ecap, capacity)
	g.einf = append(g.einf, inf)
	return id
}

// prepare finalizes the edge list into the CSR arc pool. Infinite
// capacities become finiteSum + 1, a value larger than the weight of
// any cut made of finite edges, so they can never participate in a
// minimum cut and arithmetic stays finite. Within a vertex, arcs keep
// AddEdge order, so solver traversal is deterministic.
func (g *Network) prepare() {
	if g.prepared {
		return
	}
	g.huge = g.finiteSum + 1
	m := len(g.eu)
	g.arcStart = make([]int32, g.n+1)
	for i := 0; i < m; i++ {
		g.arcStart[g.eu[i]+1]++
		g.arcStart[g.ev[i]+1]++
	}
	for v := 0; v < g.n; v++ {
		g.arcStart[v+1] += g.arcStart[v]
	}
	g.arcTo = make([]int32, 2*m)
	g.arcRev = make([]int32, 2*m)
	g.arcCap = make([]float64, 2*m)
	g.edgeArc = make([]int32, m)
	next := make([]int32, g.n)
	copy(next, g.arcStart[:g.n])
	for i := 0; i < m; i++ {
		u, v := g.eu[i], g.ev[i]
		a := next[u]
		next[u]++
		b := next[v]
		next[v]++
		g.arcTo[a] = v
		g.arcTo[b] = u
		g.arcRev[a] = b
		g.arcRev[b] = a
		g.arcCap[a] = g.preparedCap(i)
		g.arcCap[b] = 0
		g.edgeArc[i] = a
	}
	g.prepared = true
}

// preparedCap is edge i's capacity after infinity finitization.
func (g *Network) preparedCap(i int) float64 {
	if g.einf[i] {
		return g.huge
	}
	return g.ecap[i]
}

// Reset restores every residual capacity to its original value so the
// same instance can be solved again (e.g. by a different solver, or
// after Workspace-backed batch re-solves) without reallocating or
// rebuilding the CSR pool. It is a no-op before the first solve.
func (g *Network) Reset() {
	if !g.prepared {
		return
	}
	for i := range g.edgeArc {
		a := g.edgeArc[i]
		g.arcCap[a] = g.preparedCap(i)
		g.arcCap[g.arcRev[a]] = 0
	}
}

// Clone returns a deep copy of the network in its current state, so
// several solvers can run on the same instance.
func (g *Network) Clone() *Network {
	cp := &Network{
		n: g.n, source: g.source, sink: g.sink,
		eu:        append([]int32(nil), g.eu...),
		ev:        append([]int32(nil), g.ev...),
		ecap:      append([]float64(nil), g.ecap...),
		einf:      append([]bool(nil), g.einf...),
		finiteSum: g.finiteSum,
		prepared:  g.prepared,
		huge:      g.huge,
	}
	if g.prepared {
		cp.arcStart = append([]int32(nil), g.arcStart...)
		cp.arcTo = append([]int32(nil), g.arcTo...)
		cp.arcRev = append([]int32(nil), g.arcRev...)
		cp.arcCap = append([]float64(nil), g.arcCap...)
		cp.edgeArc = append([]int32(nil), g.edgeArc...)
	}
	return cp
}

// Result is the outcome of a max-flow computation. It retains the
// residual network for flow queries and min-cut extraction.
type Result struct {
	// Value is the maximum flow value.
	Value float64
	g     *Network
}

// Flow returns the amount of flow carried by the edge with the given
// identifier (as returned by AddEdge).
func (r Result) Flow(edgeID int) float64 {
	if edgeID < 0 || edgeID >= len(r.g.edgeArc) {
		panic(fmt.Sprintf("maxflow: edge id %d out of range", edgeID))
	}
	return r.g.preparedCap(edgeID) - r.g.arcCap[r.g.edgeArc[edgeID]]
}

// IsInfinite reports whether the instance admits unbounded flow, i.e.
// some source-sink path consists only of infinite-capacity edges. In
// that case Value is a finite surrogate and no finite min cut exists.
func (r Result) IsInfinite() bool { return r.Value > r.g.finiteSum }

// SourceSide returns the source side V_src of a minimum cut: the set of
// vertices reachable from the source in the residual network. Together
// with its complement it forms the minimum source-sink cut of Lemma 7.
func (r Result) SourceSide() []bool {
	g := r.g
	reach := make([]bool, g.n)
	reach[g.source] = true
	queue := make([]int32, 1, g.n)
	queue[0] = int32(g.source)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for a := g.arcStart[u]; a < g.arcStart[u+1]; a++ {
			if g.arcCap[a] <= 0 {
				continue
			}
			v := g.arcTo[a]
			if !reach[v] {
				reach[v] = true
				queue = append(queue, v)
			}
		}
	}
	return reach
}

// CutEdge describes one member of the minimum cut-edge set.
type CutEdge struct {
	ID       int     // edge identifier from AddEdge
	From, To int     // endpoints
	Capacity float64 // original capacity
}

// CutEdges returns a minimum-weight cut-edge set (Lemma 8): the
// original edges leaving the residual source side. Its total capacity
// equals Value by max-flow min-cut. CutEdges panics if an
// infinite-capacity edge would be cut, which can only happen on
// instances with unbounded flow (check IsInfinite first).
func (r Result) CutEdges() []CutEdge {
	side := r.SourceSide()
	var out []CutEdge
	for i := range r.g.eu {
		u, v := r.g.eu[i], r.g.ev[i]
		if side[u] && !side[v] {
			if r.g.einf[i] {
				panic("maxflow: minimum cut uses an infinite-capacity edge (unbounded instance)")
			}
			out = append(out, CutEdge{ID: i, From: int(u), To: int(v), Capacity: r.g.ecap[i]})
		}
	}
	return out
}

// CutWeight returns the total capacity of CutEdges.
func (r Result) CutWeight() float64 {
	var sum float64
	for _, e := range r.CutEdges() {
		sum += e.Capacity
	}
	return sum
}
