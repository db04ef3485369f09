package graph

import (
	"math"
	"math/bits"
)

// heapItem is one priority-queue entry of a sweep: a node and the value it is
// queued at — its tentative distance, plus its potential in a goal-directed
// run (RunPruned). Ordering is (dist, node) — the node tie-break keeps settle
// order, and therefore every sweep result, deterministic.
type heapItem struct {
	node NodeID
	dist float64
}

// Before reports whether a is queued strictly before b.
func (a heapItem) Before(b heapItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

// radixQueue is the priority queue of the package's runs in settle order:
// Sweep's (a directed one only where its bucketed pass is ruled out), Field's
// and ripple's (the iSPF repair, and a full run's fallback). A cold full run
// and a directed sweep otherwise drain buckets (bucketPass, runBuckets). It is
// a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan 1990) over the bits
// of float64 keys. For keys ≥ +0, math.Float64bits is increasing in the key,
// so the bits can be bucketed like integers. Let last be the bits of the key
// the radix buckets handed out last (0 before the first). Bucket i ≥ 1 holds
// the keys above last whose highest bit differing from last is bit i−1, so
// every key of bucket i is below every key of bucket j > i; bucket 0 holds
// every key at or below last — ties with it, and the keys a label-correcting
// run pushes below it — in a 4-ary heap ordered by (dist, node). The least
// entry is therefore bucket 0's top if bucket 0 is non-empty, and otherwise
// bucket 0's top once the least non-empty bucket has been split: last moves up
// to that bucket's least key, its entries at that key go to bucket 0 and the
// rest to lower buckets.
//
// Pops come out in exactly the (dist, node) order of a binary heap of
// heapItem, whatever the interleaving of Push, Peek and Pop — a push below
// last included — so that no sweep result depends on which queue it ran on
// (TestRadixQueueMatchesHeap). Keys must be ≥ +0 (never −0, never NaN), +Inf
// included: every key the package queues is a sum of positive weights and
// such keys.
//
// The radix buckets are singly linked lists threaded through one slab of
// slots, with freed slots chained for reuse, so a fresh queue grows two
// slices — the slab and bucket 0 — however many buckets it uses, and a warm
// one allocates nothing. A queue must be Reset before its first use.
type radixQueue struct {
	last uint64
	// full has bit i set when bucket i ≥ 1 is non-empty; head[i] is its first
	// slot, 0 when it is empty. notLow[i] is the complement of the bits of
	// bucket i's least key, 0 when it is empty — complemented so that clearing
	// empties it and a push updates it with one branch-free max.
	full   uint64
	head   [64]int32
	notLow [64]uint64
	// slab[0] is never handed out: index 0 ends every list, the free list
	// included.
	slab []radixSlot
	free int32
	zero []heapItem
}

// radixSlot is one entry of a radix bucket: a heapItem and the next slot of
// its list.
type radixSlot struct {
	dist float64
	node int32
	next int32
}

// Reset empties the queue, keeping its storage. A queue's first Reset gives
// the slab room for 64 entries and bucket 0 for 16, so that a fresh queue's
// first run doubles each from there instead of from one.
func (q *radixQueue) Reset() {
	for f := q.full; f != 0; f &= f - 1 { // an empty bucket's entries are 0
		b := bits.TrailingZeros64(f)
		q.head[b], q.notLow[b] = 0, 0
	}
	q.last, q.full, q.free = 0, 0, 0
	if q.slab == nil {
		q.slab, q.zero = make([]radixSlot, 1, 64), make([]heapItem, 0, 16)
	}
	q.slab, q.zero = q.slab[:1], q.zero[:0]
}

// Push queues x.
func (q *radixQueue) Push(x heapItem) {
	k := math.Float64bits(x.dist)
	if k <= q.last {
		q.pushZero(x)
		return
	}
	b := bits.Len64(k ^ q.last)
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, radixSlot{})
	}
	q.link(i, b, k)
	q.slab[i].dist, q.slab[i].node = x.dist, int32(x.node)
}

// link puts slot i, keyed k, at the head of bucket b.
func (q *radixQueue) link(i int32, b int, k uint64) {
	q.notLow[b] = max(q.notLow[b], ^k)
	q.slab[i].next = q.head[b]
	q.head[b] = i
	q.full |= 1 << b
}

// Peek returns the least entry without removing it; ok is false when the
// queue is empty.
func (q *radixQueue) Peek() (min heapItem, ok bool) {
	if len(q.zero) == 0 && !q.refill() {
		return heapItem{}, false
	}
	return q.zero[0], true
}

// Pop removes and returns the least entry; ok is false when the queue is
// empty.
func (q *radixQueue) Pop() (min heapItem, ok bool) {
	if len(q.zero) == 0 && !q.refill() {
		return heapItem{}, false
	}
	return q.popZero(), true
}

// refill splits the least non-empty radix bucket into bucket 0 and the
// buckets below it, reporting false when there is none. Bucket 0 must be
// empty.
func (q *radixQueue) refill() bool {
	if q.full == 0 {
		return false
	}
	b := bits.TrailingZeros64(q.full)
	i, last := q.head[b], ^q.notLow[b]
	q.head[b], q.notLow[b] = 0, 0
	q.full &^= 1 << b
	q.last = last
	for i != 0 {
		s := &q.slab[i]
		next := s.next
		if k := math.Float64bits(s.dist); k == last {
			q.pushZero(heapItem{node: NodeID(s.node), dist: s.dist})
			s.next = q.free
			q.free = i
		} else {
			q.link(i, bits.Len64(k^last), k)
		}
		i = next
	}
	return true
}

// pushZero adds x to bucket 0's 4-ary heap.
func (q *radixQueue) pushZero(x heapItem) {
	h := append(q.zero, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.Before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	q.zero = h
}

// popZero removes and returns bucket 0's least entry; bucket 0 must be
// non-empty.
func (q *radixQueue) popZero() heapItem {
	h := q.zero
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	q.zero = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].Before(h[m]) {
				m = j
			}
		}
		if !h[m].Before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
	return top
}
