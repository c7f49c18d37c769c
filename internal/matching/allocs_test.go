package matching

import (
	"math"
	"testing"

	"mpcgraph/internal/model"
	"mpcgraph/internal/raceflag"
)

// TestSimulateAllocsCeiling pins the direct loop's per-iteration
// allocations: the freeze worklist, the freeze list and the scan's
// shard buffers are reused, so an extra iteration allocates nothing.
// Two direct-only runs whose iteration counts differ (ε = 0.1 and
// 0.02) isolate the marginal cost per iteration from the fixed set-up.
// The CONGESTED-CLIQUE meter charges a round without allocating, so
// the margin is the loop's own; the MPC meter's routing scratch is
// pinned by TestRoutingAllocsCeiling in internal/mpc. Skipped under
// race.
func TestSimulateAllocsCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	g := benchRMAT(12)
	run := func(eps float64) (allocs float64, iters int) {
		allocs = testing.AllocsPerRun(3, func() {
			res, err := Simulate(g, SimOptions{
				Seed:    1,
				Eps:     eps,
				Workers: 1,
				Model:   model.CongestedClique,
				DCut:    func(int) float64 { return math.Inf(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			iters = res.DirectIterations
		})
		return allocs, iters
	}
	a1, i1 := run(0.1)
	a2, i2 := run(0.02)
	if i2 <= i1 {
		t.Fatalf("direct iterations %d (ε=0.02) not above %d (ε=0.1)", i2, i1)
	}
	perIter := (a2 - a1) / float64(i2-i1)
	const ceiling = 0.1
	if perIter > ceiling {
		t.Errorf("direct loop: %.3f allocs per iteration (%.0f allocs over %d iterations, %.0f over %d), ceiling %v",
			perIter, a2, i2, a1, i1, ceiling)
	}
}
