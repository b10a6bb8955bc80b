package matching

import (
	"math/rand"
	"testing"
)

// layeredCase is one graph for the layered Hopcroft–Karp tests, with
// an optional warm-start seed (nil: only cold runs).
type layeredCase struct {
	name string
	b    *Bipartite
	bb   *BitsetBipartite
	seed []int
}

// addEdge sets (u, v) in both representations.
func (c *layeredCase) addEdge(u, v int) {
	c.b.AddEdge(u, v)
	c.bb.SetEdge(u, v)
}

func newLayeredCase(name string, nLeft, nRight int) *layeredCase {
	return &layeredCase{name: name, b: NewBipartite(nLeft, nRight), bb: NewBitsetBipartite(nLeft, nRight)}
}

// alternatingPath builds one augmenting path of 2k−1 edges hidden
// behind a seeded matching: u_i—v_i is matched for i ≥ 1, u_i—v_{i+1}
// is free, u_0 and v_k are unmatched. Vertex ids are permuted so that
// consecutive path steps land in different words.
func alternatingPath(rng *rand.Rand, k int) *layeredCase {
	c := newLayeredCase("alternating-path", k, k+1)
	lp, rp := rng.Perm(k), rng.Perm(k+1)
	c.seed = make([]int, k)
	c.seed[lp[0]] = -1
	for i := 0; i < k; i++ {
		if i > 0 {
			c.addEdge(lp[i], rp[i])
			c.seed[lp[i]] = rp[i]
		}
		c.addEdge(lp[i], rp[i+1])
	}
	return c
}

// ladder is a graph whose first-fit seed leaves many long alternating
// paths: u_i is adjacent to v_i, v_{i+1} and v_{i+step}, over a right
// side that spans several words.
func ladder(n, step int) *layeredCase {
	c := newLayeredCase("ladder", n, n+step)
	for u := 0; u < n; u++ {
		c.addEdge(u, u+1)
		c.addEdge(u, u)
		c.addEdge(u, u+step)
	}
	return c
}

// wordEdges puts every edge on bits 0, 62, 63 and 64 of some word, so
// each row spans a word boundary.
func wordEdges(rng *rand.Rand, nLeft, nRight int) *layeredCase {
	c := newLayeredCase("word-boundaries", nLeft, nRight)
	for u := 0; u < nLeft; u++ {
		for v := 0; v < nRight; v++ {
			if r := v & 63; (r == 0 || r == 62 || r == 63) && rng.Intn(3) == 0 {
				c.addEdge(u, v)
			}
		}
	}
	return c
}

func layeredCases(rng *rand.Rand) []*layeredCase {
	var cases []*layeredCase
	for trial := 0; trial < 30; trial++ {
		nL, nR := 1+rng.Intn(200), 1+rng.Intn(200)
		p := []float64{0.01, 0.05, 0.3, 0.9}[trial%4] // 0.9: dense rows
		c := newLayeredCase("random", nL, nR)
		for u := 0; u < nL; u++ {
			for v := 0; v < nR; v++ {
				if rng.Float64() < p {
					c.addEdge(u, v)
				}
			}
		}
		cases = append(cases, c)
	}
	for _, k := range []int{2, 63, 65, 300} {
		cases = append(cases, alternatingPath(rng, k))
	}
	cases = append(cases, ladder(250, 70), ladder(130, 1), wordEdges(rng, 90, 200), wordEdges(rng, 150, 129))
	for _, c := range cases {
		if c.seed == nil {
			c.seed = greedySeed(c.bb)
		}
	}
	return cases
}

// TestLayeredMatchingSizes: cold and warm layered Hopcroft–Karp and the
// adjacency-list solver reach the same maximum size; both bitset
// results are consistent matchings, each König cover has exactly the
// matching's size, and no run spends more phases than augmentations
// plus the final certifying one.
func TestLayeredMatchingSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for i, c := range layeredCases(rng) {
		want := MaxMatching(c.b).Size
		cold, cst := MaxMatchingBitsetWarm(c.bb, nil)
		warm, wst := MaxMatchingBitsetWarm(c.bb, c.seed)
		for _, run := range []struct {
			name string
			m    Matching
			st   MatchingStats
		}{{"cold", cold, cst}, {"warm", warm, wst}} {
			if run.m.Size != want {
				t.Fatalf("case %d (%s) %s: size %d, slice solver %d", i, c.name, run.name, run.m.Size, want)
			}
			checkMatchingConsistent(t, c.bb, run.m)
			if run.st.Augmentations != run.m.Size-run.st.SeedSize {
				t.Fatalf("case %d (%s) %s: %d augmentations for a gap of %d", i, c.name, run.name, run.st.Augmentations, run.m.Size-run.st.SeedSize)
			}
			if run.st.Phases > run.st.Augmentations+1 {
				t.Fatalf("case %d (%s) %s: %d phases > %d augmentations + 1", i, c.name, run.name, run.st.Phases, run.st.Augmentations)
			}
			coverL, coverR := MinVertexCoverBitset(c.bb, run.m)
			size := 0
			for _, in := range append(coverL, coverR...) {
				if in {
					size++
				}
			}
			if size != run.m.Size {
				t.Fatalf("case %d (%s) %s: König cover %d != matching %d", i, c.name, run.name, size, run.m.Size)
			}
		}
	}
}

// TestLayeredLongPathOneAugmentation: a seed one augmenting path short
// of perfect is finished by exactly one augmentation in one phase plus
// the certifying one, however long the path.
func TestLayeredLongPathOneAugmentation(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	for _, k := range []int{1, 64, 129, 1000} {
		c := alternatingPath(rng, k)
		m, st := MaxMatchingBitsetWarm(c.bb, c.seed)
		if m.Size != k || st.Augmentations != 1 || st.Phases != 2 {
			t.Fatalf("k=%d: size %d, %d augmentations, %d phases; want %d, 1, 2", k, m.Size, st.Augmentations, st.Phases, k)
		}
		checkMatchingConsistent(t, c.bb, m)
	}
}
