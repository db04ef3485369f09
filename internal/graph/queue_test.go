package graph

import (
	"math"
	"math/rand"
	"testing"

	"smrp/internal/pqueue"
)

// TestRadixQueueMatchesHeap holds the radix queue to the generic binary heap
// it replaced, entry for entry, on generated operation sequences: pushes above,
// at and below the key popped last, long runs of equal keys (all at 0, or on
// a unit lattice), keys a few ulps apart, +Inf, Peek and Pop interleaved, and
// a warm queue Reset — drained or not — and used again. Every Peek and Pop
// must return the heap's entry, and an empty queue must say so when the heap
// does.
func TestRadixQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var q radixQueue
	var cov struct{ below, at, above, inf, tiedPops, peeks, drained, leftFull int }
	for seq := 0; seq < 600; seq++ {
		q.Reset()
		var h pqueue.Heap[heapItem]
		// The key shape of this sequence: 0: everything at 0; 1: a unit
		// lattice; 2: tenths, which tie but for a rounding; 3: continuous.
		shape := seq % 4
		nodes := 1 + rng.Intn(40)
		last := 0.0 // the key popped last
		key := func() float64 {
			if rng.Intn(40) == 0 {
				return Unreachable
			}
			var d float64
			switch shape {
			case 0:
				return 0
			case 1:
				d = float64(rng.Intn(4))
			case 2:
				d = 0.1 * float64(rng.Intn(4))
			default:
				d = rng.ExpFloat64()
				if rng.Intn(4) == 0 && last < Unreachable {
					d = math.Nextafter(last, Unreachable) - last // an ulp above
				}
			}
			switch rng.Intn(5) {
			case 0: // at or below the last key popped
				return last * rng.Float64()
			case 1:
				return last
			}
			return last + d
		}
		ops := 1 + rng.Intn(300)
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				x := heapItem{node: NodeID(rng.Intn(nodes)), dist: key()}
				switch {
				case x.dist == Unreachable:
					cov.inf++
				case x.dist < last:
					cov.below++
				case x.dist == last:
					cov.at++
				default:
					cov.above++
				}
				q.Push(x)
				h.Push(x)
			case r < 7:
				want, wok := h.Peek()
				got, ok := q.Peek()
				if got != want || ok != wok {
					t.Fatalf("sequence %d, op %d: Peek = %v, %v; heap %v, %v", seq, op, got, ok, want, wok)
				}
				cov.peeks++
			default:
				want, wok := h.Pop()
				got, ok := q.Pop()
				if got != want || ok != wok {
					t.Fatalf("sequence %d, op %d: Pop = %v, %v; heap %v, %v", seq, op, got, ok, want, wok)
				}
				if ok {
					if got.dist == last {
						cov.tiedPops++
					}
					last = got.dist
				}
			}
		}
		if seq%3 == 0 {
			cov.leftFull++
			continue // reset with entries queued
		}
		for {
			want, wok := h.Pop()
			got, ok := q.Pop()
			if got != want || ok != wok {
				t.Fatalf("sequence %d, draining: Pop = %v, %v; heap %v, %v", seq, got, ok, want, wok)
			}
			if !ok {
				break
			}
		}
		cov.drained++
	}
	t.Logf("coverage: %+v", cov)
	if cov.below == 0 || cov.at == 0 || cov.above == 0 || cov.inf == 0 || cov.tiedPops == 0 || cov.peeks == 0 || cov.drained == 0 || cov.leftFull == 0 {
		t.Fatalf("a class of operation was never exercised: %+v", cov)
	}
}
