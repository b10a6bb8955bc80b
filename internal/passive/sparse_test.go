package passive

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// reachability returns the reflexive transitive closure of edges over
// n vertices.
func reachability(n int, edges []sparseEdge) [][]bool {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], int(e.to))
	}
	reach := make([][]bool, n)
	for s := range reach {
		reach[s] = make([]bool, n)
		reach[s][s] = true
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !reach[s][v] {
					reach[s][v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return reach
}

// TestSparseEdgesClosureEqualsDominance pins the pruned network: over
// every kind of cover the program builds on (exact, greedy first-fit,
// all singletons), the ∞ edges touch only contending points, and their
// transitive closure over the contending points is exactly the
// pairwise geom.Dominates relation — both directions for duplicates,
// and with ±Inf coordinates.
func TestSparseEdgesClosureEqualsDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(40)
		d := 1 + rng.Intn(4)
		ws := randContendingSet(rng, n, d, 2+rng.Intn(4), trial%2 == 1)
		pts := make([]geom.Point, n)
		for i := range ws {
			pts[i] = ws[i].P
		}
		contending := literalContending(ws)
		dominates := func(i, j int) bool { return geom.Dominates(pts[i], pts[j]) }
		singletons := make([][]int, n)
		for i := range singletons {
			singletons[i] = []int{i}
		}
		for _, cv := range []struct {
			name   string
			chains [][]int
		}{
			{"exact", chains.Decompose(pts).Chains},
			{"greedy", chains.GreedyDecompose(pts)},
			{"singletons", singletons},
		} {
			edges := flatten(sparseInfinityEdges(cv.chains, contending, dominates))
			for _, e := range edges {
				if !contending[e.from] || !contending[e.to] {
					t.Fatalf("trial %d %s: edge %v leaves the contending set", trial, cv.name, e)
				}
			}
			reach := reachability(n, edges)
			for i := range ws {
				for j := range ws {
					if !contending[i] || !contending[j] {
						continue
					}
					if got, want := reach[i][j], dominates(i, j); got != want {
						t.Fatalf("trial %d %s (n=%d d=%d): %d reaches %d = %v, dominates = %v\npoints %v\nedges %v",
							trial, cv.name, n, d, i, j, got, want, pts, edges)
					}
				}
			}
		}
	}
}

// TestSparseEdgesIndependentOfGOMAXPROCS: the blocks the builder runs
// concurrently concatenate to the same edge sequence at any core
// count.
func TestSparseEdgesIndependentOfGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	ws := randomWeightedSet(rng, 600, 3, 12)
	pts := make([]geom.Point, len(ws))
	labels := make([]geom.Label, len(ws))
	for i := range ws {
		pts[i], labels[i] = ws[i].P, ws[i].Label
	}
	m := domgraph.Build(pts)
	cover := chains.DecomposeMatrix(pts, m).Chains
	contending := m.ViolationParties(labels)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := sparseInfinityEdges(cover, contending, m.Dominates)
	runtime.GOMAXPROCS(4)
	four := sparseInfinityEdges(cover, contending, m.Dominates)
	if len(one) != 1 || len(four) != 4 {
		t.Fatalf("built %d and %d blocks, want 1 and 4", len(one), len(four))
	}
	if a, b := flatten(one), flatten(four); !slices.Equal(a, b) {
		t.Fatalf("edge sequence depends on GOMAXPROCS: %d edges at 1, %d at 4", len(a), len(b))
	}
}

// TestSparseSolveAssignmentMatchesDense: the sparse and the literal
// networks have the same finite cuts, so on integer weights (exact
// flow arithmetic) the minimal min cut, and with it the assignment, is
// bit-identical.
func TestSparseSolveAssignmentMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(60)
		d := 1 + rng.Intn(4)
		ws := randContendingSet(rng, n, d, 2+rng.Intn(4), trial%2 == 1)
		for i := range ws {
			ws[i].Weight = float64(1 + rng.Intn(5))
		}
		sparse, err := Solve(ws, Options{})
		if err != nil {
			t.Fatalf("trial %d: sparse solve: %v", trial, err)
		}
		dense, err := Solve(ws, Options{Dense: true})
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		if sparse.WErr != dense.WErr || !slices.Equal(sparse.Assignment, dense.Assignment) {
			t.Fatalf("trial %d (n=%d d=%d): sparse WErr %g %v, dense WErr %g %v",
				trial, n, d, sparse.WErr, sparse.Assignment, dense.WErr, dense.Assignment)
		}
	}
}
