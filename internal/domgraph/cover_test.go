package domgraph

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"monoclass/internal/geom"
)

// coverTestPoints draws n points on a small grid (duplicates and ties
// likely), with about one coordinate in eight set to ±Inf when inf.
func coverTestPoints(rng *rand.Rand, n, d int, inf bool) []geom.Point {
	pts := randomPoints(rng, n, d, 2+rng.Intn(4))
	if inf {
		for _, p := range pts {
			for k := range p {
				switch rng.Intn(16) {
				case 0:
					p[k] = math.Inf(1)
				case 1:
					p[k] = math.Inf(-1)
				}
			}
		}
	}
	return pts
}

func flattenEdges(blocks [][]Edge) []Edge {
	var out []Edge
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// naiveCover is the O(m³) reference: rep(i) is the smallest index of
// i's equal points; rep(a) → rep(b) for each pair of distinct elements
// with a ≻ b and no element strictly between, plus both-way links
// between index-consecutive equal points.
func naiveCover(pts []geom.Point) []Edge {
	m := len(pts)
	rep := make([]int, m)
	var reps []int
	for i := range pts {
		rep[i] = i
		for j := 0; j < i; j++ {
			if pts[i].Equal(pts[j]) {
				rep[i] = rep[j]
				break
			}
		}
		if rep[i] == i {
			reps = append(reps, i)
		}
	}
	strict := func(a, b int) bool { return geom.StrictlyDominates(pts[a], pts[b]) }
	var out []Edge
	for _, a := range reps {
		for _, b := range reps {
			if !strict(a, b) {
				continue
			}
			between := false
			for _, c := range reps {
				if strict(a, c) && strict(c, b) {
					between = true
					break
				}
			}
			if !between {
				out = append(out, Edge{int32(a), int32(b)})
			}
		}
	}
	for i := range pts {
		for j := i + 1; j < m; j++ {
			if rep[j] == rep[i] {
				out = append(out, Edge{int32(i), int32(j)}, Edge{int32(j), int32(i)})
				break
			}
		}
	}
	return out
}

func sortedEdges(es []Edge) []Edge {
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b Edge) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	return es
}

// reach returns the reflexive transitive closure of edges over m
// vertices.
func reach(m int, edges []Edge) [][]bool {
	adj := make([][]int32, m)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	out := make([][]bool, m)
	for s := range out {
		out[s] = make([]bool, m)
		out[s][s] = true
		stack := []int32{int32(s)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !out[s][v] {
					out[s][v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return out
}

// TestCoverEdgesClosureAndMinimality: on random small instances with
// duplicates and ±Inf, d 1–4, the reachability of the cover edges is
// exactly pairwise geom.Dominates, and the edge set equals the naive
// transitive reduction, so no edge is implied by a longer path.
func TestCoverEdgesClosureAndMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(50)
		if trial%20 == 0 {
			m = 60 + rng.Intn(140) // several words per row
		}
		d := 1 + rng.Intn(4)
		pts := coverTestPoints(rng, m, d, trial%2 == 1)
		edges := flattenEdges(CoverEdges(pts))
		r := reach(m, edges)
		for i := range pts {
			for j := range pts {
				if got, want := r[i][j], geom.Dominates(pts[i], pts[j]); got != want {
					t.Fatalf("trial %d (m=%d d=%d): %d reaches %d = %v, dominates = %v\npoints %v\nedges %v",
						trial, m, d, i, j, got, want, pts, edges)
				}
			}
		}
		if got, want := sortedEdges(edges), sortedEdges(naiveCover(pts)); !slices.Equal(got, want) {
			t.Fatalf("trial %d (m=%d d=%d): cover edges %v, naive reduction %v\npoints %v", trial, m, d, got, want, pts)
		}
	}
}

// TestCoverEdgesIndependentOfGOMAXPROCS: the fixed row blocks
// concatenate to the same edge sequence at 1 and 4 cores.
func TestCoverEdgesIndependentOfGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := coverTestPoints(rng, 1500, 3, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := CoverEdges(pts)
	runtime.GOMAXPROCS(4)
	four := CoverEdges(pts)
	if len(one) < 2 {
		t.Fatalf("only %d blocks; the instance must span several", len(one))
	}
	if a, b := flattenEdges(one), flattenEdges(four); !slices.Equal(a, b) {
		t.Fatalf("edge sequence depends on GOMAXPROCS: %d edges at 1, %d at 4", len(a), len(b))
	}
}

// TestCoverEdgesNaNInput: NaN breaks the order the kernel sorts by, and
// nothing promises the edges' meaning then (training still accepts NaN
// coordinates), but the walk must end and every edge must name two
// distinct input points.
func TestCoverEdgesNaNInput(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(150)
		pts := coverTestPoints(rng, m, 1+rng.Intn(4), true)
		for _, p := range pts {
			if rng.Intn(4) == 0 {
				p[rng.Intn(len(p))] = math.NaN()
			}
		}
		for _, e := range flattenEdges(CoverEdges(pts)) {
			if e.From == e.To || e.From < 0 || int(e.From) >= m || e.To < 0 || int(e.To) >= m {
				t.Fatalf("trial %d: edge %v out of range for %d points", trial, e, m)
			}
		}
	}
}
