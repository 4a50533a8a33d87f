package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel drives random pushes and pops against a plain
// slice and requires the two to agree on every popped value and length.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var model []int
	next := 0
	for step := 0; step < 100_000; step++ {
		// Bias toward pushes in bursts and pops in bursts so the queue both
		// grows its array and drains to empty many times.
		pushBias := 4
		if (step/1000)%2 == 1 {
			pushBias = 6
		}
		if len(model) == 0 || rng.Intn(10) < pushBias {
			q.Push(next)
			model = append(model, next)
			next++
		} else {
			got := q.Pop()
			if got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
	}
	for len(model) > 0 {
		if got := q.Pop(); got != model[0] {
			t.Fatalf("drain: Pop = %d, want %d", got, model[0])
		}
		model = model[1:]
	}
	if q.Len() != 0 {
		t.Fatalf("drained Len = %d", q.Len())
	}
}

// TestQueueChurnStaysBounded is the eviction-list leak regression: a cache
// pushes every new key and pops the oldest once it holds more than its
// capacity. Ten thousand such pushes at capacity 4 must leave the backing
// array bounded by the capacity, not the history — the old order = order[1:]
// idiom pinned every appended array forever.
func TestQueueChurnStaysBounded(t *testing.T) {
	const capacity = 4
	var q Queue[string]
	for i := 0; i < 10_000; i++ {
		q.Push("k")
		if q.Len() > capacity {
			q.Pop()
		}
		if q.Len() > capacity {
			t.Fatalf("push %d: live window %d, want <= %d", i, q.Len(), capacity)
		}
	}
	if got := cap(q.items); got > 4*capacity {
		t.Errorf("backing array holds %d slots after 10k pushes, want <= %d", got, 4*capacity)
	}
}

// TestQueuePopDropsReferences checks that popped and compacted-away slots
// no longer reference their values, so evicted keys can be collected.
func TestQueuePopDropsReferences(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 100; i++ {
		v := i
		q.Push(&v)
		if q.Len() > 3 {
			q.Pop()
		}
	}
	for i, p := range q.items[:cap(q.items)] {
		live := i >= q.head && i < len(q.items)
		if !live && p != nil {
			t.Errorf("dead slot %d still holds a reference", i)
		}
	}
}

// TestQueueSteadyStateAllocs pins that a warmed queue pushes and pops
// without allocating.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue[string]
	for i := 0; i < 8; i++ {
		q.Push("warm")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push("k")
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("Push+Pop = %.1f allocs, want 0", allocs)
	}
}
