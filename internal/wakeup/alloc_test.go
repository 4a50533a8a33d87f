package wakeup

import (
	"math/rand"
	"testing"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// TestSchemeASteadyStateAllocBudget pins the wakeup hot path on a warm
// reused engine: the only remaining per-run allocations are the batched
// node backing, the Result bookkeeping, and one child-port send slice per
// internal tree node, so the count grows with the tree's internal nodes
// and never with the message count (89 on this n = 256 instance). The
// budget of n/2 + 64 holds for any tree with at most n/2 internal nodes;
// a path that allocated per message would exceed it many times over.
func TestSchemeASteadyStateAllocBudget(t *testing.T) {
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
		res, err := e.Run(g, 0, Algorithm{}, advice, sim.Options{EnforceWakeup: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatal("incomplete")
		}
	}
	run() // warm the engine's capacities
	budget := float64(g.N()/2 + 64)
	if allocs := testing.AllocsPerRun(10, run); allocs > budget {
		t.Errorf("steady-state scheme A run: %.0f allocs, budget %.0f", allocs, budget)
	}
}
