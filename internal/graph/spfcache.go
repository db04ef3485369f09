package graph

import "sync/atomic"

// spfEntry is one cached tree together with the elements of the mask it was
// computed under (a private copy sorted by maskElemCompare — callers reuse
// and mutate their masks; nil for the healthy tree) and that mask's
// fingerprint. The elements are what make an entry usable as a delta-repair
// base: a later miss for the same source diffs its mask against them and,
// when the diff is small, clones the tree and repairs it instead of
// re-sweeping the whole topology (see ispf.go). Entries are immutable once
// published.
type spfEntry struct {
	tree  *SPTree
	elems []MaskElem
	fp    uint64
}

// spfPair is what the cache holds for one source: at [0] the healthy tree
// (empty mask), at [1] the tree under the last non-empty mask it was asked
// about. A published pair is never mutated; a miss publishes a successor.
type spfPair [2]*spfEntry

// SPFCache is the concurrency-safe cache behind Graph.Dijkstra. Like a
// link-state router, which holds one shortest-path tree for the topology as
// it now stands, it keeps two trees per source: the healthy one, and the one
// under the failures the source was last asked about. Those are the trees
// joins read (the session's source, healthy and degraded) and routing tables
// re-read; a mask that moves by a failure or a repair is one delta repair
// away from the tree it replaces. Callers that want more trees of one source
// (MRC's backup configurations) hold them themselves.
//
// The read path is lock-free: a hit loads the source's pair through one
// atomic pointer, compares a fingerprint and allocates nothing. Its one store
// is an atomic add on the process-wide hit counter, a cache line every
// reader shares, which ROADMAP item 1(d) removes (DESIGN.md §14.1). A miss
// builds the tree and publishes a fresh pair with a compare-and-swap.
//
// Cached *SPTree values are shared between callers and MUST be treated as
// read-only. The graph is immutable, so a cached tree never goes stale.
type SPFCache struct {
	g *Graph
	// pairs is indexed by source, created by the first entry and dropped
	// wholesale by Flush (the pointer indirection keeps a concurrent reader
	// of the old slice safe while a flush retires it).
	pairs atomic.Pointer[[]atomic.Pointer[spfPair]]
}

// NewSPFCache builds a cache over g. The int argument is ignored; it stays
// only because the benchmark module passes one, and ROADMAP item 1(d), which
// unpins that module, drops it.
func NewSPFCache(g *Graph, _ int) *SPFCache { return &SPFCache{g: g} }

// slot returns src's pair pointer, creating the index on first use.
func (c *SPFCache) slot(src NodeID) *atomic.Pointer[spfPair] {
	p := c.pairs.Load()
	if p == nil {
		ps := make([]atomic.Pointer[spfPair], c.g.NumNodes())
		c.pairs.CompareAndSwap(nil, &ps)
		if p = c.pairs.Load(); p == nil {
			p = &ps // flushed meanwhile: the entry lands in a retired index
		}
	}
	return &(*p)[src]
}

// Dijkstra returns the shortest-path tree from src under mask, computing and
// caching it on a miss. Safe for concurrent use; a hit takes no lock and
// allocates nothing (pinned by TestSPFCacheHitMutexProfile and
// TestSPFCacheHitZeroAlloc), and stores only its count.
// The returned tree is shared: callers must not mutate it. A source outside
// the graph gets a fresh tree with every node unreachable, not cached.
func (c *SPFCache) Dijkstra(src NodeID, mask *Mask) *SPTree {
	if !c.g.valid(src) {
		return c.g.dijkstra(src, mask)
	}
	i, fp := 0, mask.Fingerprint() // i: the slot this mask's tree belongs in
	if !mask.IsEmpty() {
		i = 1
	}
	slot := c.slot(src)
	old := slot.Load()
	var pair spfPair
	if old != nil {
		pair = *old
	}
	if e := pair[i]; e != nil && e.fp == fp {
		spfCacheHits.Add(1)
		return e.tree
	}
	spfCacheMisses.Add(1)
	t := c.tryDelta(mask, pair[i])
	if t == nil {
		t = c.tryDelta(mask, pair[1-i])
	}
	if t == nil {
		t = c.g.dijkstra(src, mask)
	}
	e := &spfEntry{tree: t, fp: fp}
	if i == 1 {
		e.elems = mask.sortedElems()
	}
	// Publish over whatever pair is current, so a racing miss for the other
	// slot is kept; of racing misses for the same slot the last one stays,
	// which is correct whichever it is (every entry fits its own mask).
	for {
		next := spfPair{}
		if old != nil {
			next = *old
		}
		next[i] = e
		if slot.CompareAndSwap(old, &next) {
			return t
		}
		old = slot.Load()
	}
}

// tryDelta attempts to produce the tree under mask by incremental repair of
// prev instead of a full sweep. It returns nil when the delta path is
// disabled, prev is nil, the mask diff is too large, or the repair declined
// (degenerate source) — the caller then tries another base or falls back to
// g.dijkstra. On success the returned tree is bit-identical to what the full
// sweep would have produced (see ispf.go for why).
func (c *SPFCache) tryDelta(mask *Mask, prev *spfEntry) *SPTree {
	if prev == nil || spfDeltaOff.Load() {
		return nil
	}
	sc := ispfPool.Get().(*ispfScratch)
	defer ispfPool.Put(sc)
	added, removed, ok := mask.appendDiff(sc.added[:0], sc.removed[:0], prev.elems, DefaultDiffLimit)
	sc.added, sc.removed = added[:0], removed[:0] // keep grown buffers pooled
	if !ok {
		return nil
	}
	nt := cloneTree(prev.tree)
	settled, ok := ispfRepair(c.g, nt, added, removed, mask, sc)
	if !ok {
		return nil
	}
	spfDeltaRuns.Add(1)
	spfNodesSettled.Add(uint64(settled))
	return nt
}

// Flush drops every cached tree by retiring the pair index; concurrent
// readers of the old index simply observe the swap.
func (c *SPFCache) Flush() { c.pairs.Store(nil) }

// Len returns the number of cached trees, at most two per source.
func (c *SPFCache) Len() int {
	n := 0
	if p := c.pairs.Load(); p != nil {
		for i := range *p {
			if pr := (*p)[i].Load(); pr != nil {
				for _, e := range pr {
					if e != nil {
						n++
					}
				}
			}
		}
	}
	return n
}

// SPFCacheOf returns the graph's SPF cache, which Freeze and View attach to
// every graph they return.
func (g *Graph) SPFCacheOf() *SPFCache { return g.spf }

// EnableSPFCache is SPFCacheOf under the name the benchmark module still
// calls; ROADMAP item 1(d), which unpins that module, deletes it.
func (g *Graph) EnableSPFCache() *SPFCache { return g.spf }
