package graphgen

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkComplete(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Complete(256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomConnected(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomConnected(1024, 4096, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubdividedComplete(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, err := RandomEdgeTuple(128, 128, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubdividedComplete(128, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCliqueGadget(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, err := RandomEdgeTuple(128, 32, rng)
	if err != nil {
		b.Fatal(err)
	}
	c := RandomGadgetPairs(32, 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CliqueGadget(128, 4, s, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFamilies generates one instance per iteration for every family
// at the sizes the experiments and the service sweep.
func BenchmarkFamilies(b *testing.B) {
	for _, f := range Families() {
		for _, n := range []int{16, 64, 128, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", f.Name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := f.Generate(n, rng); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestGenerationAllocBudgets pins allocation counts that must not grow with
// the work done: RandomRegular(256, 4) makes dozens of rejected pairing
// attempts per graph, and each reuses the first attempt's buffers.
func TestGenerationAllocBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := RandomRegular(256, 4, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("RandomRegular(256, 4): %.0f allocs per graph, budget 40", allocs)
	}
	// Validate allocates one stamp slice whatever the graph's size.
	for _, n := range []int{16, 256} {
		g, err := RandomRegular(n, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("Validate on %d nodes: %.0f allocs, budget 1", n, allocs)
		}
	}
}
