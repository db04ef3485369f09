// Package pqueue provides a small allocation-free generic binary min-heap.
//
// It serves the event queue of internal/eventsim, in place of container/heap,
// whose interface-based API boxes every element into an `any` on Push/Pop —
// one heap allocation per operation plus a type assertion on the way out. The
// generic heap stores elements inline in a reusable slice, so a warmed-up heap
// performs zero allocations in steady state.
//
// The element's Before is not inlined: Go compiles a generic function once
// per GC shape and calls methods of the type parameter through a dictionary,
// so every comparison is an indirect call. Profiled on the mega_admit
// benchmark, that call was 7 % of the CPU on its own when the heap still
// queued internal/graph's sweeps; they now run on a radix queue of their own.
package pqueue

// Ordered is implemented by heap element types: Before reports whether the
// receiver sorts strictly before other. An element type's Before must define
// a strict weak ordering; ties (neither a.Before(b) nor b.Before(a)) keep an
// unspecified relative order, so element types that need deterministic
// behaviour must break ties themselves (eventsim's events do, by scheduling
// sequence).
type Ordered[E any] interface {
	Before(other E) bool
}

// Heap is a binary min-heap of E. The zero value is an empty heap ready for
// use. Heap is not safe for concurrent use.
//
// Pop zeroes vacated slots, so element types containing pointers do not leak
// through the heap's spare capacity.
type Heap[E Ordered[E]] struct {
	a []E
}

// Push inserts x.
func (h *Heap[E]) Push(x E) {
	h.a = append(h.a, x)
	// Sift up.
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.a[i].Before(h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// Peek returns the minimum element without removing it; ok is false when the
// heap is empty.
func (h *Heap[E]) Peek() (min E, ok bool) {
	if len(h.a) == 0 {
		var zero E
		return zero, false
	}
	return h.a[0], true
}

// Pop removes and returns the minimum element; ok is false when the heap is
// empty.
func (h *Heap[E]) Pop() (min E, ok bool) {
	n := len(h.a)
	if n == 0 {
		var zero E
		return zero, false
	}
	min = h.a[0]
	n--
	h.a[0] = h.a[n]
	var zero E
	h.a[n] = zero // do not leak pointers through spare capacity
	h.a = h.a[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		smallest := l
		if r < n && h.a[r].Before(h.a[l]) {
			smallest = r
		}
		if !h.a[smallest].Before(h.a[i]) {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return min, true
}
