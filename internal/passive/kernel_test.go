package passive

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

func randomWeightedSet(rng *rand.Rand, n, d, gridSide int) geom.WeightedSet {
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(gridSide))
		}
		ws[i] = geom.WeightedPoint{
			P:      p,
			Label:  geom.Label(rng.Intn(2)),
			Weight: 1 + rng.Float64()*4,
		}
	}
	return ws
}

// TestKernelSolveMatchesDense: for d >= 3 inputs (where the kernel
// path engages) the objective value must equal the dense literal
// Section 5.1 construction, including on duplicate-heavy grids.
func TestKernelSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		d := 3 + rng.Intn(3)
		n := 1 + rng.Intn(80)
		ws := randomWeightedSet(rng, n, d, 2+rng.Intn(3))
		fast, err := Solve(ws, Options{})
		if err != nil {
			t.Fatalf("trial %d: kernel solve: %v", trial, err)
		}
		dense, err := Solve(ws, Options{Dense: true})
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		if math.Abs(fast.WErr-dense.WErr) > 1e-9 {
			t.Fatalf("trial %d (n=%d d=%d): kernel WErr %g != dense %g", trial, n, d, fast.WErr, dense.WErr)
		}
		if fast.Stats.Contending != dense.Stats.Contending {
			t.Fatalf("trial %d: kernel contending %d != dense %d", trial, fast.Stats.Contending, dense.Stats.Contending)
		}
		// The kernel assignment must itself achieve its objective.
		var got float64
		for i, wp := range ws {
			if fast.Assignment[i] != wp.Label {
				got += wp.Weight
			}
		}
		if math.Abs(got-fast.WErr) > 1e-9 {
			t.Fatalf("trial %d: assignment weight %g != WErr %g", trial, got, fast.WErr)
		}
	}
}

// flatten concatenates the ∞-edge blocks into the edge sequence.
func flatten(blocks [][]domgraph.Edge) []domgraph.Edge {
	var out []domgraph.Edge
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// TestSparseEdgesMatrixMatchesScalar: the ∞-edge builder must emit the
// same edge sequence whether its dominance predicate reads the
// bit-packed matrix or calls geom.Dominates, and the matrix contending
// scan must agree with the chain-end scan.
func TestSparseEdgesMatrixMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.Intn(5)
		n := 1 + rng.Intn(90)
		ws := randomWeightedSet(rng, n, d, 2+rng.Intn(3))
		pts := make([]geom.Point, n)
		labels := make([]geom.Label, n)
		for i := range ws {
			pts[i] = ws[i].P
			labels[i] = ws[i].Label
		}
		m := domgraph.Build(pts)
		cover := chains.DecomposeMatrix(pts, m).Chains
		contending := contendingPoints(ws, cover)

		scalar := flatten(sparseInfinityEdges(cover, contending, func(i, j int) bool {
			return geom.Dominates(pts[i], pts[j])
		}))
		kernel := flatten(sparseInfinityEdges(cover, contending, m.Dominates))
		if !slices.Equal(scalar, kernel) {
			t.Fatalf("trial %d (n=%d d=%d): scalar edges %v != kernel edges %v", trial, n, d, scalar, kernel)
		}
		kc := m.ViolationParties(labels)
		if !slices.Equal(kc, contending) {
			t.Fatalf("trial %d: kernel contending %v != chain-end scan %v", trial, kc, contending)
		}
	}
}
