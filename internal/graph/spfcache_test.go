package graph

import (
	"sync"
	"testing"
)

// cacheTestGraph builds a small weighted graph:
//
//	0 —1— 1 —1— 2
//	 \         /
//	  2———————3   (0–4–2 via node 3? no: direct edge 0-3 w2, 3-2 w2)
func cacheTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := New(5)
	edges := []struct {
		u, v NodeID
		w    float64
	}{
		{0, 1, 1}, {1, 2, 1}, {0, 3, 2}, {3, 2, 2}, {2, 4, 1},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return b.Freeze()
}

func TestSPFCacheHitsAndEquivalence(t *testing.T) {
	g := cacheTestGraph(t)
	want := g.dijkstra(0, nil) // from-scratch reference
	c := g.SPFCacheOf()

	t1 := g.Dijkstra(0, nil)
	t2 := g.Dijkstra(0, nil)
	if t1 != t2 {
		t.Error("second lookup should return the memoized tree")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	for n := range want.Dist {
		if want.Dist[n] != t1.Dist[n] || want.Parent[n] != t1.Parent[n] {
			t.Errorf("node %d: cached (%v,%v) != from scratch (%v,%v)",
				n, t1.Dist[n], t1.Parent[n], want.Dist[n], want.Parent[n])
		}
	}
}

// TestEveryGraphCarriesACache pins that Freeze and View attach an SPF cache
// to every graph they return: with no setup call, a first Dijkstra is a miss
// in the graph's own cache and a second identical one a hit that returns the
// memoized tree.
func TestEveryGraphCarriesACache(t *testing.T) {
	g := cacheTestGraph(t)
	v, _, err := g.View(1, 3, []NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	for what, x := range map[string]*Graph{"frozen": g, "view": v} {
		c := x.SPFCacheOf()
		if c == nil {
			t.Fatalf("%s graph carries no SPF cache", what)
		}
		t1, t2 := x.Dijkstra(0, nil), x.Dijkstra(0, nil)
		if hits, misses := c.Stats(); hits != 1 || misses != 1 || t1 != t2 || c.Len() != 1 {
			t.Errorf("%s graph: (%d hits, %d misses, %d entries), same tree %v; want (1, 1, 1), true", what, hits, misses, c.Len(), t1 == t2)
		}
	}
}

// TestSPFCacheSourceOutsideGraph pins that a cached query from a source the
// graph does not hold answers as a from-scratch run does, every node
// unreachable, and leaves the cache as it was: nothing memoized, no lineage
// index.
func TestSPFCacheSourceOutsideGraph(t *testing.T) {
	b := New(3)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	c := NewSPFCache(g, 0)
	for _, src := range []NodeID{-1, 3} {
		tr := c.Dijkstra(src, nil)
		for n := range tr.Dist {
			if tr.Reachable(NodeID(n)) || tr.Parent[n] != Invalid {
				t.Errorf("source %d: node %d reachable (%v, parent %d)", src, n, tr.Dist[n], tr.Parent[n])
			}
		}
		if p, d := g.ShortestPath(src, 2, nil); p != nil || d != Unreachable {
			t.Errorf("ShortestPath(%d, 2) = (%v, %v), want (nil, +Inf)", src, p, d)
		}
	}
	for _, x := range []*SPFCache{c, g.SPFCacheOf()} {
		if x.Len() != 0 || x.recent.Load() != nil {
			t.Errorf("cache holds %d entries, lineage index %v; want none", x.Len(), x.recent.Load() != nil)
		}
	}
}

func TestSPFCacheDistinguishesMasks(t *testing.T) {
	g := cacheTestGraph(t)

	free := g.Dijkstra(0, nil)
	masked := g.Dijkstra(0, NewMask().BlockEdge(0, 1))
	if free == masked {
		t.Fatal("different masks must not share a cache entry")
	}
	if free.Dist[2] != 2 {
		t.Errorf("unmasked dist to 2 = %v, want 2", free.Dist[2])
	}
	if masked.Dist[2] != 4 {
		t.Errorf("masked dist to 2 = %v, want 4 (via 0-3-2)", masked.Dist[2])
	}
}

// TestSPFCacheIdleHoldsNothing pins what lets every recovery domain of a
// hierarchy carry a cache of its own: a cache nobody has asked anything has no
// shard map and no lineage index, the first entry creates exactly what it
// needs, and a flush gives it all back.
func TestSPFCacheIdleHoldsNothing(t *testing.T) {
	g := cacheTestGraph(t)
	c := g.SPFCacheOf()
	idle := func(when string) {
		t.Helper()
		for i := range c.shards {
			if c.shards[i].m.Load() != nil {
				t.Fatalf("%s: shard %d holds a map", when, i)
			}
		}
		if c.recent.Load() != nil {
			t.Fatalf("%s: lineage index allocated", when)
		}
		if c.Len() != 0 || c.recentOf(0) != nil {
			t.Fatalf("%s: cache not empty", when)
		}
	}
	idle("new")
	g.Dijkstra(0, nil)
	maps := 0
	for i := range c.shards {
		if c.shards[i].m.Load() != nil {
			maps++
		}
	}
	if maps != 1 || c.Len() != 1 || c.recentOf(0) == nil {
		t.Fatalf("after one lookup: %d shard maps, %d entries, lineage head %v", maps, c.Len(), c.recentOf(0))
	}
	c.Flush()
	idle("flushed")
}

func TestSPFCacheConcurrentLookups(t *testing.T) {
	g := cacheTestGraph(t)
	want := g.dijkstra(1, nil)

	var wg sync.WaitGroup
	const goroutines = 16
	errs := make([]string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				src := NodeID(k % 5)
				tr := g.Dijkstra(src, nil)
				if tr.Source != src {
					errs[slot] = "wrong source tree returned"
					return
				}
				if src == 1 && tr.Dist[4] != want.Dist[4] {
					errs[slot] = "cached tree diverges from direct computation"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
}

func TestSPFCacheShardEviction(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewSPFCache(g, 2) // tiny shards to force eviction
	for k := 0; k < 100; k++ {
		m := NewMask().BlockNode(NodeID(k%3 + 1))
		if k%2 == 0 {
			m.BlockEdge(2, 4)
		}
		_ = c.Dijkstra(0, m)
	}
	if c.Len() > 2*spfShardCount {
		t.Errorf("cache exceeded its bound: %d entries", c.Len())
	}
}

func TestMaskFingerprint(t *testing.T) {
	a := NewMask().BlockNode(3).BlockEdge(1, 2)
	b := NewMask().BlockEdge(2, 1).BlockNode(3) // same set, different order
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint must be insertion-order independent")
	}
	if (&Mask{}).Fingerprint() != (*Mask)(nil).Fingerprint() {
		t.Error("empty and nil masks must fingerprint identically")
	}
	c := NewMask().BlockNode(3)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different blocked sets should fingerprint differently")
	}
	// A node-block and an edge-block must not collide trivially.
	n := NewMask().BlockNode(1)
	e := NewMask().BlockEdge(0, 1)
	if n.Fingerprint() == e.Fingerprint() {
		t.Error("node vs edge block collided")
	}
}
