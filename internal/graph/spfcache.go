package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// spfShardCount is the number of independent write domains in an SPFCache.
// Sixteen shards keep writer serialization negligible for worker pools up to
// a few dozen goroutines while costing almost nothing at rest. Readers never
// touch a shard lock at all — see spfShard.
const spfShardCount = 16

// defaultSPFShardCap bounds each shard. When a shard fills up it is cleared
// wholesale — memoization is purely a performance optimization, so dropping
// entries is always safe, and wholesale clearing avoids the bookkeeping of
// an LRU on the hot path.
const defaultSPFShardCap = 512

// spfKey identifies one memoized shortest-path tree: the Dijkstra source
// plus the fingerprint of the failure mask it was computed under.
type spfKey struct {
	src NodeID
	fp  uint64
}

// spfEntry is one memoized tree together with the mask it was computed under
// (a private clone — callers reuse and mutate their masks). The mask is what makes an entry usable as a delta-repair
// ancestor: a later miss for the same source diffs its mask against this one
// and, when the diff is small, clones the tree and repairs it in place
// instead of re-sweeping the whole topology (see ispf.go). Entries are
// immutable once published.
type spfEntry struct {
	tree *SPTree
	mask *Mask
}

// spfMap is one shard's immutable entry snapshot. A published map is never
// mutated again; writers clone-on-write and publish a fresh map through the
// shard's atomic pointer.
type spfMap = map[spfKey]*spfEntry

// spfShard is one write domain of the cache. The read path is lock-free:
// a hit loads the current snapshot pointer and probes the immutable map —
// no mutex, no atomic read-modify-write, nothing a concurrent writer can
// contend on. The mutex serializes writers only (clone → insert → publish);
// readers racing a publish see either the old or the new snapshot, both of
// which are internally consistent. A shard has no map until its first insert
// (and none again after a flush), so a cache nobody has asked anything yet —
// every graph and every view carries one — is its struct and nothing more.
type spfShard struct {
	m  atomic.Pointer[spfMap]
	mu sync.Mutex // serializes writers; the read path never touches it
}

// load returns the shard's current immutable snapshot.
func (sh *spfShard) load() spfMap {
	if p := sh.m.Load(); p != nil {
		return *p
	}
	return nil
}

// SPFCache is the concurrency-safe memoization layer behind Graph.Dijkstra,
// sharded by (source, mask-fingerprint) so parallel scenario trials — and
// parallel sessions inside one scenario — that share a topology stop
// recomputing identical shortest-path trees from scratch.
//
// The read path is entirely lock-free: hits load an immutable per-shard
// snapshot map and a per-source lineage head through atomic pointers, so any
// number of reader goroutines scale without a shared cache line to bounce a
// mutex on (DESIGN.md §14). Writers clone-on-write and publish; the cost of
// the clone is bounded by the shard cap and paid only on misses, which a
// hit-dominated workload amortizes away.
//
// Cached *SPTree values are shared between callers and MUST be treated as
// read-only; every consumer in this repository already does (PathTo and Dist
// lookups only). The graph is immutable, so a memoized tree never goes stale.
type SPFCache struct {
	g      *Graph
	shards [spfShardCount]spfShard
	// recent tracks, per source, the most recently touched entry — the
	// clone-on-write lineage head that delta repairs start from. The slice is
	// indexed by NodeID, created by the first entry and dropped wholesale on
	// flush (the pointer indirection keeps a concurrent reader of the old
	// slice safe while a flush retires it).
	recent atomic.Pointer[[]atomic.Pointer[spfEntry]]
	cap    int

	flushMu sync.Mutex // serializes flushes (writer-side only)

	hits   atomic.Uint64
	misses atomic.Uint64
	deltas atomic.Uint64
}

// NewSPFCache builds a cache over g. capPerShard bounds each of the 16
// shards; values < 1 select the default (512 entries per shard).
func NewSPFCache(g *Graph, capPerShard int) *SPFCache {
	if capPerShard < 1 {
		capPerShard = defaultSPFShardCap
	}
	return &SPFCache{g: g, cap: capPerShard}
}

// noteRecent records e as the lineage head for src (lock-free publish).
func (c *SPFCache) noteRecent(src NodeID, e *spfEntry) {
	p := c.recent.Load()
	if p == nil {
		rs := make([]atomic.Pointer[spfEntry], c.g.NumNodes())
		c.recent.CompareAndSwap(nil, &rs)
		p = c.recent.Load() // ours, a racing first entry's, or nil again after a flush
	}
	if p != nil && int(src) < len(*p) {
		(*p)[src].Store(e)
	}
}

// recentOf returns the lineage head for src, or nil (lock-free load).
func (c *SPFCache) recentOf(src NodeID) *spfEntry {
	if p := c.recent.Load(); p != nil && int(src) < len(*p) {
		return (*p)[src].Load()
	}
	return nil
}

// Dijkstra returns the shortest-path tree from src under mask, computing and
// memoizing it on first use. Safe for concurrent use; hits take zero locks
// (pinned by TestSPFCacheHitZeroAlloc and TestSPFCacheHitMutexProfile). The
// returned tree is shared: callers must not mutate it. A source outside the
// graph gets a fresh tree with every node unreachable, neither memoized nor
// a lineage head.
func (c *SPFCache) Dijkstra(src NodeID, mask *Mask) *SPTree {
	if !c.g.valid(src) {
		return c.g.dijkstra(src, mask)
	}
	key := spfKey{src: src, fp: mask.Fingerprint()}
	sh := &c.shards[mix64(uint64(uint32(key.src))^key.fp)%spfShardCount]

	if e, ok := sh.load()[key]; ok {
		c.hits.Add(1)
		spfCacheHits.Add(1)
		// A hit refreshes the lineage head: the next miss for this source is
		// most likely a small delta of the mask just queried.
		c.noteRecent(src, e)
		return e.tree
	}
	c.misses.Add(1)
	spfCacheMisses.Add(1)
	t := c.tryDelta(src, mask)
	if t == nil {
		t = c.g.dijkstra(src, mask)
	}
	e := &spfEntry{tree: t, mask: mask.Clone()}
	sh.mu.Lock()
	old := sh.load()
	var next spfMap
	if len(old) >= c.cap {
		// Shard full: drop it wholesale. Correctness never depends on a
		// cache hit, and starting fresh beats LRU bookkeeping (and keeps the
		// clone below O(cap)).
		next = make(spfMap)
	} else {
		// Clone-on-write: the published map is immutable, so an insert
		// copies the current snapshot and publishes the successor. Readers
		// racing this see the old snapshot — a spurious miss at worst.
		next = make(spfMap, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
	}
	// Last writer wins on a racing double-compute; both results are
	// identical because dijkstra and the delta repair are deterministic.
	next[key] = e
	sh.m.Store(&next)
	sh.mu.Unlock()
	c.noteRecent(src, e)
	return t
}

// tryDelta attempts to produce the (src, mask) tree by incremental repair of
// the source's lineage head instead of a full sweep. It returns nil when the
// delta path is disabled, no lineage exists, the mask diff is too large, or
// the repair declined (degenerate source) — the caller then falls back to
// g.dijkstra. On success the returned tree is bit-identical to what the full
// sweep would have produced (see ispf.go for why).
func (c *SPFCache) tryDelta(src NodeID, mask *Mask) *SPTree {
	if spfDeltaOff.Load() {
		return nil
	}
	prev := c.recentOf(src)
	if prev == nil {
		return nil
	}
	sc := ispfPool.Get().(*ispfScratch)
	defer ispfPool.Put(sc)
	added, removed, ok := mask.AppendDiff(sc.added[:0], sc.removed[:0], prev.mask, DefaultDiffLimit)
	sc.added, sc.removed = added[:0], removed[:0] // keep grown buffers pooled
	if !ok {
		return nil
	}
	if len(added) == 0 && len(removed) == 0 {
		// Content-identical mask (entry was evicted from the shard map):
		// the lineage tree is already the answer.
		return prev.tree
	}
	nt := cloneTree(prev.tree)
	settled, ok := ispfRepair(c.g, nt, added, removed, mask, sc)
	if !ok {
		return nil
	}
	c.deltas.Add(1)
	spfDeltaRuns.Add(1)
	spfNodesSettled.Add(uint64(settled))
	return nt
}

// Flush drops every memoized tree (including the delta-repair lineage
// index) by retiring the shards' snapshots. Flushes serialize against each
// other and against shard writers; concurrent readers simply observe the
// swap.
func (c *SPFCache) Flush() {
	c.flushMu.Lock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m.Store(nil)
		sh.mu.Unlock()
	}
	c.recent.Store(nil)
	c.flushMu.Unlock()
}

// Len returns the number of memoized trees across all shards.
func (c *SPFCache) Len() int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].load())
	}
	return n
}

// Stats returns cumulative hit/miss counters.
func (c *SPFCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// String describes the cache state.
func (c *SPFCache) String() string {
	h, m := c.Stats()
	return fmt.Sprintf("graph.SPFCache{entries=%d hits=%d misses=%d deltas=%d}",
		c.Len(), h, m, c.deltas.Load())
}

// SPFCacheOf returns the graph's SPF cache, which Freeze and View attach to
// every graph they return.
func (g *Graph) SPFCacheOf() *SPFCache { return g.spf }

// EnableSPFCache is SPFCacheOf under the name the benchmark module still
// calls; ROADMAP item 1(d), which unpins that module, deletes it.
func (g *Graph) EnableSPFCache() *SPFCache { return g.spf }
