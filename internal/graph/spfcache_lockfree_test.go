package graph

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
)

// lockFreeTestGraph builds a modest random-ish mesh big enough that cache
// hits dominate and several shards are populated.
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
	return b.Freeze()
}

// TestSPFCacheHitZeroAlloc pins that a cache hit allocates nothing: the read
// path loads two atomic pointers and probes one immutable map — no clone, no
// lock, no bookkeeping garbage.
func TestSPFCacheHitZeroAlloc(t *testing.T) {
	g := lockFreeTestGraph(t)
	c := g.EnableSPFCache()
	g.Dijkstra(0, nil) // warm the entry and its lineage head
	allocs := testing.AllocsPerRun(200, func() {
		g.Dijkstra(0, nil)
	})
	if allocs != 0 {
		t.Errorf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
	if h, _ := c.Stats(); h == 0 {
		t.Fatal("warm lookups did not register as hits")
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
	g.EnableSPFCache()
	masks := []*Mask{nil, NewMask().BlockNode(5), NewMask().BlockEdge(2, 3)}
	for src := NodeID(0); src < 8; src++ {
		for _, m := range masks {
			g.Dijkstra(src, m) // populate: every query below is a hit
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				src := NodeID((w + i) % 8)
				g.Dijkstra(src, masks[i%len(masks)])
			}
		}(w)
	}
	wg.Wait()

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

// TestSPFCacheParallelReadWrite races readers against writers (misses force
// clone-on-write publishes and wholesale evictions) and cross-checks every
// tree a reader observes against an uncached reference. Run under -race in
// CI, this is the memory-safety gate for the snapshot-publish protocol.
func TestSPFCacheParallelReadWrite(t *testing.T) {
	g := lockFreeTestGraph(t)
	ref := make(map[NodeID]*SPTree)
	for src := NodeID(0); src < 16; src++ {
		ref[src] = g.Dijkstra(src, nil) // uncached reference trees
	}
	c := NewSPFCache(g, 4) // tiny shards: force eviction churn mid-race

	const goroutines = 12
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mask := NewMask()
			for i := 0; i < 2000; i++ {
				src := NodeID((w*7 + i) % 16)
				if i%17 == 0 {
					// Unique-ish masked queries keep the writer path busy.
					mask.BlockEdge(NodeID(i%30), NodeID(i%30+1))
					c.Dijkstra(src, mask)
					mask.UnblockEdge(NodeID(i%30), NodeID(i%30+1))
					continue
				}
				got := c.Dijkstra(src, nil)
				want := ref[src]
				for n := range want.Dist {
					if got.Dist[n] != want.Dist[n] {
						t.Errorf("src %d node %d: dist %v != %v", src, n, got.Dist[n], want.Dist[n])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkSPFCacheHitParallel measures the lock-free hit path under
// goroutine pressure (the shape the serving layer and the sharded event-sim
// mode put on the shared cache).
func BenchmarkSPFCacheHitParallel(b *testing.B) {
	g := lockFreeTestGraph(b)
	g.EnableSPFCache()
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
