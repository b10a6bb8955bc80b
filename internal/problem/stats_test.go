package problem

import (
	"bytes"
	"math/rand"
	"testing"

	"monoclass/internal/domgraph"
	"monoclass/internal/passive"
)

// deferredStats asserts that p's decomposition has not run yet: Stats
// reports PathDeferred with zero decomposition fields. It returns the
// Stats read after the first Decomposition() call, which must keep
// every prepare field and TotalNS unchanged.
func deferredStats(t *testing.T, p *Problem) PrepareStats {
	t.Helper()
	before := p.Stats()
	if before.DecomposePath != PathDeferred || before.Width != 0 || before.ExactWidth ||
		before.SeedChains != 0 || before.Augmentations != 0 || before.Phases != 0 ||
		before.CertEarlyExit || before.DecomposeNS != 0 {
		t.Fatalf("deferred stats %+v", before)
	}
	if before.TotalNS <= 0 || before.TotalNS < before.NetworkNS+before.MatrixNS {
		t.Fatalf("deferred timing stats %+v", before)
	}
	p.Decomposition()
	after := p.Stats()
	if after.DecomposeNS <= 0 {
		t.Fatalf("first use untimed: %+v", after)
	}
	if after.N != before.N || after.Dim != before.Dim || after.Mode != before.Mode ||
		after.MatrixNS != before.MatrixNS || after.NetworkNS != before.NetworkNS || after.TotalNS != before.TotalNS {
		t.Fatalf("first use changed prepare stats: %+v -> %+v", before, after)
	}
	return after
}

// TestPrepareStatsPaths pins which DecomposePath each Prepare route
// records, that exact paths carry warm-start counters consistent with
// the width, and that stage timings are populated. Dense routes at
// d ≥ 3 defer the decomposition: they report PathDeferred until the
// first Decomposition() call, then the path that ran.
func TestPrepareStatsPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))

	t.Run("fast-2d", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 40, 2), Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != PathFast2D || !st.ExactWidth {
			t.Fatalf("stats %+v", st)
		}
	})

	t.Run("exact-dense", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 60, 3), Options{Mode: ModeDense})
		if err != nil {
			t.Fatal(err)
		}
		st := deferredStats(t, p)
		if st.DecomposePath != PathExactDense || !st.ExactWidth {
			t.Fatalf("stats %+v", st)
		}
		if st.Width != p.Width() || st.Mode != "dense" || st.N != 60 || st.Dim != 3 {
			t.Fatalf("stats %+v disagree with problem (width %d)", st, p.Width())
		}
		if !st.CertEarlyExit && st.Augmentations != st.SeedChains-st.Width {
			t.Fatalf("augmentations %d != seed %d - width %d", st.Augmentations, st.SeedChains, st.Width)
		}
		if st.TotalNS <= 0 || st.TotalNS < st.NetworkNS {
			t.Fatalf("timing stats %+v", st)
		}
	})

	t.Run("exact-transient", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 50, 3), Options{Mode: ModeBlocked})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != PathExactTransient || !st.ExactWidth {
			t.Fatalf("stats %+v", st)
		}
		if p.Matrix() != nil {
			t.Fatal("transient matrix retained")
		}
	})

	t.Run("greedy-fallback", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 50, 3), Options{Mode: ModeBlocked, ExactDecomposeLimit: 10})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.DecomposePath != PathGreedyFallback || st.ExactWidth || p.ExactWidth() {
			t.Fatalf("stats %+v exact %v", st, p.ExactWidth())
		}
		if st.SeedChains != 0 || st.Augmentations != 0 {
			t.Fatalf("greedy fallback reported matching work: %+v", st)
		}
	})

	t.Run("adopted", func(t *testing.T) {
		ws := randomSet(rng, 40, 3)
		m := domgraph.Build(pointsOf(ws))
		p, err := Adopt(ws, m)
		if err != nil {
			t.Fatal(err)
		}
		if st := deferredStats(t, p); st.DecomposePath != PathAdopted || !st.ExactWidth || st.Width != p.Width() {
			t.Fatalf("stats %+v", st)
		}
	})

	t.Run("loaded", func(t *testing.T) {
		p, err := Prepare(randomSet(rng, 30, 3), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		st := q.Stats()
		if st.DecomposePath != PathLoaded {
			t.Fatalf("stats %+v", st)
		}
		if st.TotalNS != 0 {
			t.Fatalf("loaded problem claims prepare timing: %+v", st)
		}
		if st.Width != p.Width() || st.ExactWidth != p.ExactWidth() {
			t.Fatalf("loaded stats %+v disagree with source (width %d exact %v)", st, p.Width(), p.ExactWidth())
		}
	})
}

// TestRaisedExactLimitGuard: the raised DefaultExactDecomposeLimit must
// still respect the dense-footprint guard — a tiny MaxDenseBytes forces
// the greedy fallback even under the limit.
func TestRaisedExactLimitGuard(t *testing.T) {
	if DefaultExactDecomposeLimit < 65536 {
		t.Fatalf("DefaultExactDecomposeLimit = %d, want >= 65536", DefaultExactDecomposeLimit)
	}
	rng := rand.New(rand.NewSource(23))
	p, err := Prepare(randomSet(rng, 64, 3), Options{Mode: ModeBlocked, MaxDenseBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.DecomposePath != PathGreedyFallback {
		t.Fatalf("tiny guard did not force fallback: %+v", st)
	}
}

// TestPrepareWarmStartSmoke is the CI quick-smoke: one warm-started
// exact prepare on a d=3 instance big enough to run real matching
// phases (on first use, after the deferred state is checked), solved
// end to end. make ci-smoke runs it under -race.
func TestPrepareWarmStartSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ws := randomSet(rng, 512, 3)
	p, err := Prepare(ws, Options{Mode: ModeDense})
	if err != nil {
		t.Fatal(err)
	}
	st := deferredStats(t, p)
	if st.DecomposePath != PathExactDense || !st.ExactWidth {
		t.Fatalf("smoke prepare took path %q (exact %v)", st.DecomposePath, st.ExactWidth)
	}
	if !st.CertEarlyExit && st.Augmentations != st.SeedChains-st.Width {
		t.Fatalf("warm-start accounting broken: %+v", st)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := passive.Solve(ws, passive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.WErr != legacy.WErr {
		t.Fatalf("prepared WErr %v != legacy %v", sol.WErr, legacy.WErr)
	}
}
