package broadcast

import (
	"math/rand"
	"testing"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// TestSchemeBSteadyStateAllocBudget pins the zero-allocation hot path: a
// warm reused engine running scheme B allocates only the per-run Result
// bookkeeping plus the algorithm's three batched backing arrays — a
// constant independent of n (8 here). The budget of 24 leaves headroom for
// map/runtime noise while still failing loudly on any per-node or
// per-message regression, which would cost hundreds at n = 256.
func TestSchemeBSteadyStateAllocBudget(t *testing.T) {
	g, err := graphgen.RandomConnected(256, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Oracle{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	run := func() {
		res, err := e.Run(g, 0, Algorithm{}, advice, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatal("incomplete")
		}
	}
	run() // warm the engine's capacities
	if allocs := testing.AllocsPerRun(10, run); allocs > 24 {
		t.Errorf("steady-state scheme B run: %.0f allocs, budget 24", allocs)
	}
}
