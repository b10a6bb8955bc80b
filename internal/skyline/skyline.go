// Package skyline computes Pareto frontiers (skylines) under the
// dominance order: the maximal or minimal points of a set. Skylines
// are the classic database-query incarnation of dominance, and two
// spots of this library are built on them: anchor classifiers are
// exactly the upward closure of a minimal-point skyline, and the
// passive solver's positive region is reported through it.
//
// The 2-D case runs in O(n log n) by a sort-and-sweep; the general
// case is sort-filter-skyline, O(d·n·s) after the sort (s = skyline
// size), quadratic only when the skyline itself is.
package skyline

import (
	"math"
	"slices"
	"sort"

	"monoclass/internal/geom"
)

// Minimal returns the indices of the minimal points of pts: those not
// strictly dominating any other point... precisely, p is minimal when
// no q (distinct as a point; duplicates count as one) is strictly
// below it. Coordinate-equal duplicates are reported once (smallest
// index). Indices are returned in increasing order.
func Minimal(pts []geom.Point) []int {
	if len(pts) == 0 {
		return nil
	}
	if len(pts[0]) == 2 {
		return minimal2D(pts)
	}
	if len(pts[0]) == 0 || hasNaN(pts) {
		return minimalScan(pts)
	}
	return minimalSFS(pts)
}

// Maximal returns the indices of the maximal points of pts (the
// classic skyline): those not strictly dominated by any other point,
// duplicates reported once. Indices are returned in increasing order.
func Maximal(pts []geom.Point) []int {
	if len(pts) == 0 {
		return nil
	}
	neg := make([]geom.Point, len(pts))
	for i, p := range pts {
		q := make(geom.Point, len(p))
		for k, v := range p {
			q[k] = -v
		}
		neg[i] = q
	}
	return Minimal(neg)
}

// minimalSFS is sort-filter-skyline: in lexicographic order (ties by
// index) everything a point strictly dominates comes before it, and so
// does every duplicate with a smaller index, so a point is minimal iff
// it dominates none of the minima kept so far. Only those are tested;
// their coordinates sit in one flat slice.
func minimalSFS(pts []geom.Point) []int {
	d := len(pts[0])
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := pts[a], pts[b]
		for k := range pa {
			if pa[k] != pb[k] {
				if pa[k] < pb[k] {
					return -1
				}
				return 1
			}
		}
		return a - b
	})
	var out []int
	var kept []float64 // coordinates of out's points, d per point
next:
	for _, i := range order {
		p := pts[i]
		for off := 0; off < len(kept); off += d {
			q := kept[off : off+d]
			dom := true
			for k, v := range q {
				if p[k] < v {
					dom = false
					break
				}
			}
			if dom {
				continue next
			}
		}
		out = append(out, i)
		kept = append(kept, p...)
	}
	sort.Ints(out)
	return out
}

// hasNaN reports whether any coordinate is NaN. NaN breaks the total
// order the sort needs, so such sets take the pairwise scan (as do
// zero-dimensional points, which all coincide).
func hasNaN(pts []geom.Point) bool {
	for _, p := range pts {
		for _, v := range p {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// minimalScan is the pairwise scan by the definition, kept for point
// sets with NaN coordinates.
func minimalScan(pts []geom.Point) []int {
	var out []int
	for i, p := range pts {
		minimal := true
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Equal(p) {
				if j < i {
					minimal = false // duplicate reported at j
					break
				}
				continue
			}
			if geom.Dominates(p, q) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, i)
		}
	}
	return out
}

// minimal2D sorts by (x asc, y asc, index asc) and sweeps: a point is
// minimal iff its y is strictly below every earlier point's minimum y
// — with care for duplicates and equal-x runs.
func minimal2D(pts []geom.Point) []int {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := pts[order[a]], pts[order[b]]
		if pa[0] != pb[0] {
			return pa[0] < pb[0]
		}
		if pa[1] != pb[1] {
			return pa[1] < pb[1]
		}
		return order[a] < order[b]
	})
	var out []int
	bestY := 0.0
	haveBest := false
	var lastKept geom.Point
	for _, idx := range order {
		p := pts[idx]
		if haveBest {
			if lastKept.Equal(p) {
				continue // duplicate of a kept point: report once
			}
			if p[1] >= bestY {
				continue // dominates some earlier kept point
			}
		}
		out = append(out, idx)
		bestY = p[1]
		haveBest = true
		lastKept = p
	}
	sort.Ints(out)
	return out
}

// Filter returns the subset of pts selected by idxs.
func Filter(pts []geom.Point, idxs []int) []geom.Point {
	out := make([]geom.Point, len(idxs))
	for i, idx := range idxs {
		out[i] = pts[idx]
	}
	return out
}
