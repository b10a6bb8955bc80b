package skyline

import (
	"math"
	"math/rand"
	"testing"

	"monoclass/internal/geom"
)

// bruteMinimal is the definition, used as oracle: the pairwise scan
// Minimal ran at every d ≠ 2 before sort-filter-skyline.
func bruteMinimal(pts []geom.Point) []int {
	var out []int
	for i, p := range pts {
		minimal := true
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Equal(p) {
				if j < i {
					minimal = false
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

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMinimalBasics(t *testing.T) {
	pts := []geom.Point{{2, 2}, {1, 3}, {3, 1}, {0, 0}}
	got := Minimal(pts)
	if !equalInts(got, []int{3}) {
		t.Errorf("Minimal = %v, want [3]", got)
	}
	max := Maximal(pts)
	if !equalInts(max, []int{0, 1, 2}) {
		// (2,2), (1,3), (3,1) are mutually incomparable tops.
		t.Errorf("Maximal = %v, want [0 1 2]", max)
	}
	if Minimal(nil) != nil || Maximal(nil) != nil {
		t.Error("empty sets should give nil")
	}
}

func TestMinimalDuplicates(t *testing.T) {
	pts := []geom.Point{{1, 1}, {1, 1}, {2, 2}, {1, 1}}
	got := Minimal(pts)
	if !equalInts(got, []int{0}) {
		t.Errorf("Minimal = %v, want [0] (duplicates reported once)", got)
	}
}

func TestMinimal2DMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{float64(rng.Intn(6)), float64(rng.Intn(6))}
		}
		fast := Minimal(pts)
		want := bruteMinimal(pts)
		if !equalInts(fast, want) {
			t.Fatalf("trial %d: fast %v != brute %v (pts %v)", trial, fast, want, pts)
		}
	}
}

func TestMinimalHigherDims(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(25)
		d := 3 + rng.Intn(2)
		pts := make([]geom.Point, n)
		for i := range pts {
			p := make(geom.Point, d)
			for k := range p {
				p[k] = float64(rng.Intn(4))
			}
			pts[i] = p
		}
		if !equalInts(Minimal(pts), bruteMinimal(pts)) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

// TestMinimalSFSMatchesScan: sort-filter-skyline must return exactly
// the scan's indices (ascending, duplicates once at the smallest
// index) for d 3–5 with duplicates and ±Inf, and d 1; NaN inputs take
// the scan itself, so they match too.
func TestMinimalSFSMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		d := 3 + rng.Intn(3)
		if trial%10 == 0 {
			d = 1
		}
		grid := 2 + rng.Intn(4)
		pts := make([]geom.Point, n)
		for i := range pts {
			if i > 0 && rng.Intn(5) == 0 {
				pts[i] = pts[rng.Intn(i)].Clone()
				continue
			}
			p := make(geom.Point, d)
			for k := range p {
				p[k] = float64(rng.Intn(grid))
				switch rng.Intn(12) {
				case 0:
					p[k] = math.Inf(1)
				case 1:
					p[k] = math.Inf(-1)
				case 2:
					if trial%7 == 0 {
						p[k] = math.NaN()
					}
				}
			}
			pts[i] = p
		}
		if got, want := Minimal(pts), bruteMinimal(pts); !equalInts(got, want) {
			t.Fatalf("trial %d (n=%d d=%d): Minimal %v, scan %v\npoints %v", trial, n, d, got, want, pts)
		}
	}
}

func TestMaximalIsMinimalOfNegation(t *testing.T) {
	pts := []geom.Point{{0, 0}, {5, 5}, {2, 7}, {7, 2}}
	got := Maximal(pts)
	if !equalInts(got, []int{1, 2, 3}) {
		t.Errorf("Maximal = %v, want [1 2 3]", got)
	}
}

func TestFilter(t *testing.T) {
	pts := []geom.Point{{1}, {2}, {3}}
	sub := Filter(pts, []int{2, 0})
	if len(sub) != 2 || !sub[0].Equal(geom.Point{3}) || !sub[1].Equal(geom.Point{1}) {
		t.Errorf("Filter wrong: %v", sub)
	}
}

func TestMinimal2DLargeScale(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 100000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64()}
	}
	got := Minimal(pts)
	// Pairwise incomparability of the skyline.
	for a := 0; a < len(got); a++ {
		for b := a + 1; b < len(got); b++ {
			if geom.Comparable(pts[got[a]], pts[got[b]]) {
				t.Fatalf("skyline members %d and %d comparable", got[a], got[b])
			}
		}
	}
	if len(got) == 0 || len(got) > 200 {
		t.Errorf("suspicious skyline size %d for uniform data", len(got))
	}
}
