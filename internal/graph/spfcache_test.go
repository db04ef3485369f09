package graph

import (
	"slices"
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
	return mustFreeze(b)
}

func TestSPFCacheHitsAndEquivalence(t *testing.T) {
	g := cacheTestGraph(t)
	want := g.dijkstra(0, nil) // from-scratch reference

	before := SPFCounters()
	t1 := g.Dijkstra(0, nil)
	t2 := g.Dijkstra(0, nil)
	if t1 != t2 {
		t.Error("second lookup should return the cached tree")
	}
	if d := SPFCounters().Sub(before); d.CacheHits != 1 || d.CacheMisses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", d.CacheHits, d.CacheMisses)
	}
	for n := range want.Dist {
		if want.Dist[n] != t1.Dist[n] || want.Parent(NodeID(n)) != t1.Parent(NodeID(n)) {
			t.Errorf("node %d: cached (%v,%v) != from scratch (%v,%v)",
				n, t1.Dist[n], t1.Parent(NodeID(n)), want.Dist[n], want.Parent(NodeID(n)))
		}
	}
}

// TestEveryGraphCarriesACache pins that Freeze and View attach an SPF cache
// to every graph they return: with no setup call, a first Dijkstra is a miss
// in the graph's own cache and a second identical one a hit that returns the
// cached tree.
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
		before := SPFCounters()
		t1, t2 := x.Dijkstra(0, nil), x.Dijkstra(0, nil)
		if d := SPFCounters().Sub(before); d.CacheHits != 1 || d.CacheMisses != 1 || t1 != t2 || c.Len() != 1 {
			t.Errorf("%s graph: (%d hits, %d misses, %d entries), same tree %v; want (1, 1, 1), true", what, d.CacheHits, d.CacheMisses, c.Len(), t1 == t2)
		}
	}
}

// TestSPFCacheSourceOutsideGraph pins that a cached query from a source the
// graph does not hold answers as a from-scratch run does, every node
// unreachable, and leaves the cache as it was: nothing cached, no tree
// index.
func TestSPFCacheSourceOutsideGraph(t *testing.T) {
	b := New(3)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := mustFreeze(b)
	c := NewSPFCache(g, 0)
	for _, src := range []NodeID{-1, 3} {
		tr := c.Dijkstra(src, nil)
		for n := range tr.Dist {
			if tr.Reachable(NodeID(n)) || tr.Parent(NodeID(n)) != Invalid {
				t.Errorf("source %d: node %d reachable (%v, parent %d)", src, n, tr.Dist[n], tr.Parent(NodeID(n)))
			}
		}
		if p, d := g.ShortestPath(src, 2, nil); p != nil || d != Unreachable {
			t.Errorf("ShortestPath(%d, 2) = (%v, %v), want (nil, +Inf)", src, p, d)
		}
	}
	for _, x := range []*SPFCache{c, g.SPFCacheOf()} {
		if x.Len() != 0 || x.trees.Load() != nil {
			t.Errorf("cache holds %d entries, tree index %v; want none", x.Len(), x.trees.Load() != nil)
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
// tree index, the first entry creates the index and one tree, and a flush
// gives it all back.
func TestSPFCacheIdleHoldsNothing(t *testing.T) {
	g := cacheTestGraph(t)
	c := g.SPFCacheOf()
	idle := func(when string) {
		t.Helper()
		if c.trees.Load() != nil || c.Len() != 0 {
			t.Fatalf("%s: tree index allocated, %d entries", when, c.Len())
		}
	}
	idle("new")
	g.Dijkstra(0, nil)
	if c.trees.Load() == nil || c.Len() != 1 {
		t.Fatalf("after one lookup: tree index %v, %d entries; want allocated, 1", c.trees.Load() != nil, c.Len())
	}
	c.Flush()
	idle("flushed")
}

// TestSPFCacheOneTreePerSource pins the cache's shape: one source asked
// under the healthy mask, A, B and A again holds its healthy tree alone; each
// masked query is a fresh full run, equal to the uncached computation and
// counted as a full run, not as a lookup; the healthy tree survives the
// masked queries as a hit; and a flush empties the cache.
func TestSPFCacheOneTreePerSource(t *testing.T) {
	g := cacheTestGraph(t)
	c := g.SPFCacheOf()
	a, b := NewMask().BlockEdge(0, 1), NewMask().BlockNode(3)
	for step, m := range []*Mask{nil, a, b, a} {
		want := g.dijkstra(0, m)
		before := SPFCounters()
		got := c.Dijkstra(0, m)
		d := SPFCounters().Sub(before)
		if !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.parent, want.parent) {
			t.Fatalf("step %d: tree differs from a fresh sweep", step)
		}
		if m != nil && (d.FullRuns != 1 || d.CacheHits+d.CacheMisses != 0 || got == c.Dijkstra(0, m)) {
			t.Errorf("step %d: masked query made %d full runs, %d lookups, and was shared; want 1, 0, fresh", step, d.FullRuns, d.CacheHits+d.CacheMisses)
		}
		if c.Len() != 1 {
			t.Fatalf("step %d: cache holds %d trees of one source, want 1", step, c.Len())
		}
	}
	before := SPFCounters()
	c.Dijkstra(0, nil)
	if d := SPFCounters().Sub(before); d.CacheHits != 1 || d.CacheMisses != 0 || d.FullRuns != 0 {
		t.Errorf("healthy repeat: %d hits, %d misses, %d full runs; want 1, 0, 0", d.CacheHits, d.CacheMisses, d.FullRuns)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("after Flush: %d trees, want 0", c.Len())
	}
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
