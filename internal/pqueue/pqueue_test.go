package pqueue

import (
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
)

// item is a test element: ordered by key, ties broken by seq (FIFO).
type item struct {
	key float64
	seq int
}

func (a item) Before(b item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func TestHeapOrdersRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		var h Heap[item]
		want := make([]item, 0, n)
		for i := 0; i < n; i++ {
			it := item{key: float64(rng.Intn(20)), seq: i}
			h.Push(it)
			want = append(want, it)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Before(want[j]) })
		if len(h.a) != n {
			t.Fatalf("%d queued, want %d", len(h.a), n)
		}
		for i := 0; i < n; i++ {
			if peek, ok := h.Peek(); !ok || peek != want[i] {
				t.Fatalf("trial %d: Peek[%d] = %v/%v, want %v", trial, i, peek, ok, want[i])
			}
			got, ok := h.Pop()
			if !ok || got != want[i] {
				t.Fatalf("trial %d: Pop[%d] = %v/%v, want %v", trial, i, got, ok, want[i])
			}
		}
		if _, ok := h.Pop(); ok {
			t.Fatal("Pop on empty heap reported ok")
		}
		if _, ok := h.Peek(); ok {
			t.Fatal("Peek on empty heap reported ok")
		}
	}
}

func TestHeapFIFOAtEqualKeys(t *testing.T) {
	var h Heap[item]
	for i := 0; i < 32; i++ {
		h.Push(item{key: 1, seq: i})
	}
	for i := 0; i < 32; i++ {
		got, ok := h.Pop()
		if !ok || got.seq != i {
			t.Fatalf("equal-key pop %d returned seq %d", i, got.seq)
		}
	}
}

// TestHeapSteadyStateAllocs verifies the heap's reason for existing: a
// warmed-up push/pop cycle performs zero heap allocations (container/heap
// boxes every element into an `any`, costing one allocation per Push).
func TestHeapSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var h Heap[item]
	h.a = make([]item, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h.Push(item{key: float64(64 - i), seq: i})
		}
		for len(h.a) > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per run, want 0", allocs)
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	var h Heap[item]
	h.a = make([]item, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			h.Push(item{key: float64((j * 2654435761) % 997), seq: j})
		}
		for len(h.a) > 0 {
			h.Pop()
		}
	}
}
