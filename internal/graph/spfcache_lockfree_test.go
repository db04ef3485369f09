package graph

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
)

// lockFreeTestGraph builds a modest random-ish mesh big enough that cache
// hits dominate and many sources hold trees.
func lockFreeTestGraph(t testing.TB) *Graph {
	t.Helper()
	const n = 40
	b := New(n)
	for i := NodeID(0); i < n-1; i++ {
		if err := b.AddEdge(i, i+1, 1+float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := NodeID(0); i < n-7; i += 3 {
		if err := b.AddEdge(i, i+7, 2+float64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	return mustFreeze(b)
}

// TestSPFCacheHitZeroAlloc pins that a cache hit allocates nothing: the read
// path loads two atomic pointers — no clone, no lock, no bookkeeping garbage.
func TestSPFCacheHitZeroAlloc(t *testing.T) {
	g := lockFreeTestGraph(t)
	g.Dijkstra(0, nil) // warm the entry
	before := SPFCounters()
	allocs := testing.AllocsPerRun(200, func() {
		g.Dijkstra(0, nil)
	})
	if allocs != 0 {
		t.Errorf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
	if d := SPFCounters().Sub(before); d.CacheHits == 0 || d.CacheMisses != 0 {
		t.Fatalf("warm lookups: %d hits, %d misses; want only hits", d.CacheHits, d.CacheMisses)
	}
}

// TestSPFCacheHitMutexProfile hammers the hit path from many goroutines with
// mutex profiling at full fidelity and then asserts the runtime recorded no
// lock contention inside the SPF cache. Because the read path holds no lock
// at all, this holds for any scheduling; with the previous RWMutex-sharded
// read path the same hammer could (and on multicore hardware did) produce
// spfcache contention records.
func TestSPFCacheHitMutexProfile(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	g := lockFreeTestGraph(t)
	for src := NodeID(0); src < 8; src++ {
		g.Dijkstra(src, nil) // populate: every query below is a hit
	}
	before := SPFCounters()

	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				src := NodeID((w + i) % 8)
				g.Dijkstra(src, nil)
			}
		}(w)
	}
	wg.Wait()
	if d := SPFCounters().Sub(before); d.CacheMisses != 0 {
		t.Fatalf("%d misses among the hammer's lookups, want 0", d.CacheMisses)
	}

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	prof := buf.String()
	for _, frame := range []string{"spfcache", "SPFCache"} {
		if strings.Contains(prof, frame) {
			t.Errorf("mutex profile records contention in the SPF cache (frame %q):\n%s", frame, prof)
		}
	}
}

// TestSPFCacheParallelReadWrite races healthy readers, whose misses publish
// their source's tree, against masked readers, whose queries are uncached full
// runs, and against flushes that retire the whole index, and cross-checks
// every tree a goroutine observes against a from-scratch reference. Run under
// -race in CI, this is the memory-safety gate for the tree-publish protocol.
func TestSPFCacheParallelReadWrite(t *testing.T) {
	g := lockFreeTestGraph(t)
	ref := make(map[NodeID]*SPTree)
	for src := NodeID(0); src < 16; src++ {
		ref[src] = g.dijkstra(src, nil)
	}
	c := NewSPFCache(g, 0)

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make([]string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mask := NewMask()
			for i := 0; i < 2000; i++ {
				src := NodeID((w*7 + i) % 16)
				got, want := c.Dijkstra(src, nil), ref[src]
				if i%17 == 0 {
					// A masked query: a full run beside the cached trees.
					mask.BlockEdge(NodeID(i%30), NodeID(i%30+1))
					got, want = c.Dijkstra(src, mask), g.dijkstra(src, mask)
					mask.UnblockEdge(NodeID(i%30), NodeID(i%30+1))
				}
				if w == 0 && i%101 == 0 {
					c.Flush()
				}
				if !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.parent, want.parent) {
					errs[w] = fmt.Sprintf("src %d lookup %d: tree differs from a fresh sweep", src, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
}

// TestSPFCacheFirstQueriesRace has goroutines make the first queries on a
// freshly frozen graph and on a view of it at the same time, so the caches
// Freeze and View attach meet their first tree index and trees under
// contention, each source asked for its healthy tree and one mask. Every tree
// must be the from-scratch one, and each source's healthy tree must be
// cached once its publishes have raced. Run under -race in CI.
func TestSPFCacheFirstQueriesRace(t *testing.T) {
	g := lockFreeTestGraph(t)
	v, _, err := g.View(0, 20, []NodeID{27, 33})
	if err != nil {
		t.Fatal(err)
	}
	masks := []*Mask{nil, NewMask().BlockNode(5)}
	type query struct {
		x    *Graph
		src  NodeID
		mask *Mask
	}
	var queries []query
	want := make(map[query]*SPTree)
	for _, x := range []*Graph{g, v} {
		for src := NodeID(0); src < 8; src++ {
			for _, m := range masks {
				q := query{x, src, m}
				queries = append(queries, q)
				want[q] = x.dijkstra(src, m)
			}
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := range queries {
				q := queries[(w*5+i)%len(queries)]
				got, ref := q.x.Dijkstra(q.src, q.mask), want[q]
				for n := range ref.Dist {
					if got.Dist[n] != ref.Dist[n] || got.Parent(NodeID(n)) != ref.Parent(NodeID(n)) {
						errs[w] = fmt.Sprintf("source %d node %d: (%v, %d), from scratch (%v, %d)", q.src, n, got.Dist[n], got.Parent(NodeID(n)), ref.Dist[n], ref.Parent(NodeID(n)))
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
	for _, x := range []*Graph{g, v} {
		if x.SPFCacheOf().Len() != 8 {
			t.Errorf("cache holds %d trees, want 8", x.SPFCacheOf().Len())
		}
	}
}

// BenchmarkSPFCacheHitParallel measures the lock-free hit path under
// goroutine pressure (the shape the serving layer and the sharded event-sim
// mode put on the shared cache).
func BenchmarkSPFCacheHitParallel(b *testing.B) {
	g := lockFreeTestGraph(b)
	for src := NodeID(0); src < 8; src++ {
		g.Dijkstra(src, nil)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		src := NodeID(0)
		for pb.Next() {
			g.Dijkstra(src, nil)
			src = (src + 1) % 8
		}
	})
}
