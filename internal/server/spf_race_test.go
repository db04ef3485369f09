package server

import (
	"context"
	"sync"
	"testing"

	"smrp/internal/graph"
)

// TestSPFCountersConcurrentSessions hammers the process-global SPF counters
// from many session actors sharing one topology while readers snapshot them
// concurrently. The counters are atomics, so under -race this pins the
// concurrency contract the serving layer depends on: parallel sessions may
// drive SPF work (bumping counters through the shared cache) while /metrics
// scrapes SPFCounters, with no synchronization beyond the atomics
// themselves.
func TestSPFCountersConcurrentSessions(t *testing.T) {
	g := waxmanGraph(t, 64, 5)
	reg := NewRegistry(g, RegistryConfig{})
	t.Cleanup(reg.Close)

	const actors = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: sessions joining and leaving, each join a cache lookup and a
	// potential full or delta SPF run.
	for i := 0; i < actors; i++ {
		a, err := reg.Create(CreateSessionRequest{Source: graph.NodeID(i)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, a *Actor) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				node := graph.NodeID((i*17 + n*3 + 1) % g.NumNodes())
				if node == a.Source {
					continue
				}
				if _, err := a.Join(ctx, node); err == nil {
					_ = a.Leave(ctx, node)
				}
			}
		}(i, a)
	}

	// Readers: two metrics scrapers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = graph.SPFCounters()
			}
		}()
	}

	// Let the contention run for a fixed number of scheduler passes; under
	// -race any unsynchronized access fails the test.
	waitFor(t, "sessions to accumulate SPF work", func() bool {
		var handled uint64
		for _, a := range reg.List() {
			handled += a.Handled()
		}
		return handled > 2000
	})
	close(stop)
	wg.Wait()
	// No value assertions: the contract under test is freedom from data
	// races.
}
