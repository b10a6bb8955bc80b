package passive

import (
	"math"
	"math/rand"
	"testing"

	"monoclass/internal/chains"
	"monoclass/internal/geom"
)

// literalContending is the definition of Section 5.1 read off
// directly: every (label-0, label-1) pair with p ⪰ q marks both ends.
func literalContending(ws geom.WeightedSet) []bool {
	out := make([]bool, len(ws))
	for i := range ws {
		if ws[i].Label != geom.Negative {
			continue
		}
		for j := range ws {
			if ws[j].Label == geom.Positive && geom.Dominates(ws[i].P, ws[j].P) {
				out[i], out[j] = true, true
			}
		}
	}
	return out
}

// randContendingSet draws a small grid instance whose coordinates
// repeat often (duplicates across labels) and, when withInf is set,
// are replaced by ±Inf about one time in six.
func randContendingSet(rng *rand.Rand, n, d, grid int, withInf bool) geom.WeightedSet {
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = float64(rng.Intn(grid))
			if withInf && rng.Intn(6) == 0 {
				p[k] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		ws[i] = geom.WeightedPoint{P: p, Label: geom.Label(rng.Intn(2)), Weight: 1}
	}
	return ws
}

// TestContendingChainEndsMatchLiteral pins the chain-end scan to the
// literal O(n²) pair scan under every kind of valid cover the program
// hands it: the exact minimum decomposition, the greedy first-fit
// cover the d ≥ 3 fallback runs, and the trivial all-singleton cover.
// It also drives the same covers through Prepare, the route
// buildGraph's chain-index branch takes.
func TestContendingChainEndsMatchLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		d := 1 + rng.Intn(4)
		ws := randContendingSet(rng, n, d, 2+rng.Intn(4), trial%2 == 1)
		want := literalContending(ws)

		pts := make([]geom.Point, n)
		for i := range ws {
			pts[i] = ws[i].P
		}
		singletons := make([][]int, n)
		for i := range singletons {
			singletons[i] = []int{i}
		}
		covers := []struct {
			name   string
			chains [][]int
		}{
			{"exact", chains.Decompose(pts).Chains},
			{"greedy", chains.GreedyDecompose(pts)},
			{"singletons", singletons},
		}
		for _, cv := range covers {
			ci := buildChainIndex(ws, cv.chains)
			got := contendingPoints(ws, &ci)
			pp, err := Prepare(ws, Options{Chains: cv.chains})
			if err != nil {
				t.Fatalf("trial %d %s: Prepare: %v", trial, cv.name, err)
			}
			viaPrepare := pp.Contending()
			for i := range want {
				if got[i] != want[i] || viaPrepare[i] != want[i] {
					t.Fatalf("trial %d %s (n=%d d=%d): contending[%d] = %v (Prepare %v), literal %v\npoints %v",
						trial, cv.name, n, d, i, got[i], viaPrepare[i], want[i], ws)
				}
			}
		}
	}
}
