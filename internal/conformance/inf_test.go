package conformance

import (
	"math"
	"math/rand"
	"testing"
)

// infInstance draws a small grid instance in which about one
// coordinate in five is ±Inf; duplicates are frequent by construction.
func infInstance(rng *rand.Rand, trial int) Instance {
	n := 1 + rng.Intn(30)
	d := 1 + rng.Intn(4)
	in := Instance{Family: "inf-grid", Seed: int64(trial)}
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for k := range row {
			row[k] = float64(rng.Intn(3))
			if rng.Intn(5) == 0 {
				row[k] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		in.Points = append(in.Points, row)
		in.Labels = append(in.Labels, rng.Intn(2))
		in.Weights = append(in.Weights, float64(1+rng.Intn(4)))
	}
	return in
}

// TestInfInstancesRunPreparedAndPassiveDifferentials: ±Inf is totally
// ordered, so the prepared-vs-legacy differential and the passive
// differential (contending masks included) must hold on it in full.
// The NaN corner fixtures run through the prepared check, to pin that
// it declines them without panicking; NaN breaks the transitivity the
// passive solver relies on, so the passive differential skips them.
func TestInfInstancesRunPreparedAndPassiveDifferentials(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	instances := warmStartCornerFixtures()
	for trial := 0; trial < 300; trial++ {
		instances = append(instances, infInstance(rng, trial))
	}
	for k, in := range instances {
		if err := Safe(CheckProblemPrepared, in); err != nil {
			t.Fatalf("instance %d (%s): problem-prepared-vs-legacy: %v\n%v", k, in.Family, err, in.Points)
		}
		if hasNaNPoints(in.Pts()) {
			continue
		}
		if err := Safe(CheckPassiveDifferential, in); err != nil {
			t.Fatalf("instance %d (%s): passive differential: %v\n%v", k, in.Family, err, in.Points)
		}
	}
}
