package graph

import (
	"sync/atomic"

	"smrp/internal/metrics"
)

// Package-wide SPF work counters (see metrics.SPFStats for field meaning).
// They are process-global rather than per-cache so a study spanning many
// per-trial topologies still reports one comparable total.
var (
	spfFullRuns     atomic.Uint64
	spfNodesSettled atomic.Uint64
	spfCacheHits    atomic.Uint64
	spfCacheMisses  atomic.Uint64
)

// SPFCounters returns a snapshot of the process-wide SPF work counters.
// The counters are atomics: snapshotting and incrementing may race freely
// (e.g. a /metrics scrape during live traffic). DeltaRuns always reads 0.
func SPFCounters() metrics.SPFStats {
	return metrics.SPFStats{
		FullRuns:     spfFullRuns.Load(),
		NodesSettled: spfNodesSettled.Load(),
		CacheHits:    spfCacheHits.Load(),
		CacheMisses:  spfCacheMisses.Load(),
	}
}

// SPFCache is the concurrency-safe cache behind Graph.Dijkstra. It keeps one
// tree per source: the healthy one. That is the tree joins read (the session
// source's distances, its delay bounds while healthy and the candidate
// sweep's potential always), and the potential of every point query
// (Sweep.RunToward, Sweep.RunFrom), which is how a caller asks for one
// distance under failures. A tree under a mask is computed afresh for whoever asks (MRC's
// configurations, a chaos audit) and never cached.
//
// The read path is lock-free: a hit loads the source's tree through one
// atomic pointer and allocates nothing. Its one store is an atomic add on the
// process-wide hit counter, a cache line every reader shares, which ROADMAP
// item 1(d) removes (DESIGN.md §14.1). A miss builds the tree and publishes
// it with a compare-and-swap.
//
// Cached *SPTree values are shared between callers and MUST be treated as
// read-only. The graph is immutable, so a cached tree never goes stale.
type SPFCache struct {
	g *Graph
	// trees is indexed by source, created by the first entry and dropped
	// wholesale by Flush (the pointer indirection keeps a concurrent reader
	// of the old slice safe while a flush retires it).
	trees atomic.Pointer[[]atomic.Pointer[SPTree]]
}

// NewSPFCache builds a cache over g. The int argument is ignored; it stays
// only because the benchmark module passes one, and ROADMAP item 1(d), which
// unpins that module, drops it.
func NewSPFCache(g *Graph, _ int) *SPFCache { return &SPFCache{g: g} }

// slot returns src's tree pointer, creating the index on first use.
func (c *SPFCache) slot(src NodeID) *atomic.Pointer[SPTree] {
	p := c.trees.Load()
	if p == nil {
		ts := make([]atomic.Pointer[SPTree], c.g.NumNodes())
		c.trees.CompareAndSwap(nil, &ts)
		if p = c.trees.Load(); p == nil {
			p = &ts // flushed meanwhile: the entry lands in a retired index
		}
	}
	return &(*p)[src]
}

// Dijkstra returns the shortest-path tree from src under mask. The healthy
// tree (empty mask) is cached: a hit takes no lock and allocates nothing
// (pinned by TestSPFCacheHitMutexProfile and TestSPFCacheHitZeroAlloc), and
// stores only its count. A non-empty mask, or a source outside the graph,
// gets a fresh tree, counted as a full run and not as a lookup.
// The returned tree is shared: callers must not mutate it.
func (c *SPFCache) Dijkstra(src NodeID, mask *Mask) *SPTree {
	if !mask.IsEmpty() || !c.g.valid(src) {
		return c.g.dijkstra(src, mask)
	}
	slot := c.slot(src)
	if t := slot.Load(); t != nil {
		spfCacheHits.Add(1)
		return t
	}
	spfCacheMisses.Add(1)
	t := c.g.dijkstra(src, nil)
	// Of racing misses the first published tree stays; every one is the same.
	if !slot.CompareAndSwap(nil, t) {
		return slot.Load()
	}
	return t
}

// Flush drops every cached tree by retiring the index; concurrent readers of
// the old index simply observe the swap.
func (c *SPFCache) Flush() { c.trees.Store(nil) }

// Len returns the number of cached trees, at most one per source.
func (c *SPFCache) Len() int {
	n := 0
	if p := c.trees.Load(); p != nil {
		for i := range *p {
			if (*p)[i].Load() != nil {
				n++
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
