// Package fifo holds the FIFO queue behind every insertion-order eviction
// list and per-tenant backlog in this repository.
package fifo

// Queue is a first-in first-out queue over a slice. Popping advances a head
// index instead of re-slicing, and the dead prefix is reclaimed in place
// before the backing array would grow, so a long-lived queue's array stays
// within about twice its peak length rather than growing with every push
// it has ever seen. The zero value is an empty queue.
type Queue[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && 2*q.head >= len(q.items) {
		// Full array, at least half of it dead: compact instead of growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the head item. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop the reference for the GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}
