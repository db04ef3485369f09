package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smrp/internal/core"
	"smrp/internal/graph"
)

// TestGracefulDrainUnderJoinStorm boots a real listener, hammers it with
// concurrent joins, cancels the serve context mid-storm (the SIGTERM path),
// and verifies the drain contract: Serve returns cleanly, every actor's
// mailbox is flushed, accepted commands were all handled, and no goroutines
// leak.
func TestGracefulDrainUnderJoinStorm(t *testing.T) {
	g := waxmanGraph(t, 96, 1)
	baseline := runtime.NumGoroutine()

	reg := NewRegistry(g, RegistryConfig{Generation: 2})
	srv := New(reg, Config{DrainTimeout: 10 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(5 * time.Second):
		t.Fatal("server did not start")
	}

	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 15 * time.Second}

	const sessions = 16
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = createSession(t, client, base, graph.NodeID(i))
	}

	// Join storm: each session gets a dedicated stormer issuing joins as
	// fast as the server accepts them, until the drain cuts it off.
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	stormCtx, stopStorm := context.WithCancel(context.Background())
	defer stopStorm()
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for n := 20; ; n++ {
				if stormCtx.Err() != nil {
					return
				}
				node := graph.NodeID((i*7 + n) % g.NumNodes())
				code, err := tryJSON(client, http.MethodPost,
					fmt.Sprintf("%s/v1/sessions/%s/join", base, id),
					NodeRequest{Node: node}, nil)
				switch {
				case err != nil:
					// Connection severed by the drain — done storming.
					return
				case code == http.StatusOK, code == http.StatusConflict,
					code == http.StatusUnprocessableEntity:
					accepted.Add(1)
				default:
					// Drain cut us off (503/404) — stop storming this session.
					return
				}
			}
		}(i, id)
	}

	// Let the storm build up, then pull the plug mid-flight.
	waitFor(t, "storm to make progress", func() bool { return accepted.Load() > 2*sessions })
	cancel()

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	stopStorm()
	wg.Wait()

	if !srv.draining.Load() {
		t.Fatal("server not marked draining after shutdown")
	}

	// Every actor flushed its mailbox and exited; accepted commands were all
	// handled, not dropped.
	var handled uint64
	for _, a := range reg.List() {
		select {
		case <-a.Drained():
		default:
			t.Fatalf("session %s not drained", a.ID)
		}
		if d := a.MailboxDepth(); d != 0 {
			t.Fatalf("session %s mailbox depth %d after drain, want 0", a.ID, d)
		}
		handled += a.Handled()
	}
	// Each session handled at least its create-time state plus the storm
	// joins the server accepted before the cut.
	if handled < accepted.Load() {
		t.Fatalf("handled %d commands < %d accepted over HTTP: commands were dropped", handled, accepted.Load())
	}

	// New sessions are refused once drained: the listener is down (dial
	// error) or, at worst, a lingering keep-alive gets a 503.
	if code, err := tryJSON(client, http.MethodPost, base+"/v1/sessions",
		CreateSessionRequest{Source: 0}, nil); err == nil && code == http.StatusCreated {
		t.Fatal("create succeeded after drain")
	}

	// No leaked goroutines: once client keep-alives are closed, the count
	// returns to (near) the pre-server baseline.
	tr.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentSessionLifecycles drives 64 concurrent sessions end to end
// over HTTP — create, join fan-in, failure burst, repair, stats, leave,
// delete — over one shared topology and SPF cache. Run with -race this
// doubles as the shared-state safety check for the registry, hub, and the
// graph's SPF counters.
func TestConcurrentSessionLifecycles(t *testing.T) {
	g := waxmanGraph(t, 96, 3)
	_, ts := testServer(t, g)
	client := ts.Client()
	client.Timeout = 30 * time.Second

	const sessions = 64
	const joins = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("session %d: "+format, append([]any{i}, args...)...)
			}
			src := graph.NodeID(i % g.NumNodes())
			var info SessionInfo
			code, err := tryJSON(client, http.MethodPost, ts.URL+"/v1/sessions",
				CreateSessionRequest{Source: src}, &info)
			if err != nil || code != http.StatusCreated {
				fail("create: status %d err %v", code, err)
				return
			}
			base := ts.URL + "/v1/sessions/" + info.ID

			members := 0
			for n := 1; n <= joins; n++ {
				node := graph.NodeID((i*11 + n*5) % g.NumNodes())
				if node == src {
					continue
				}
				code, err := tryJSON(client, http.MethodPost, base+"/join", NodeRequest{Node: node}, nil)
				switch {
				case err != nil:
					fail("join %d: %v", node, err)
					return
				case code == http.StatusOK:
					members++
				case code == http.StatusConflict, code == http.StatusUnprocessableEntity:
					// already a member / unreachable under current failures
				default:
					fail("join %d: status %d", node, code)
					return
				}
			}

			// Failure burst + repair round-trip.
			victim := graph.NodeID((i*13 + 1) % g.NumNodes())
			if victim != src {
				spec := FailureSpec{Nodes: []graph.NodeID{victim}}
				code, err := tryJSON(client, http.MethodPost, base+"/fail", FailRequest{FailureSpec: spec}, nil)
				if err != nil || (code != http.StatusOK && code != http.StatusConflict) {
					fail("fail %d: status %d err %v", victim, code, err)
					return
				}
				if code == http.StatusOK {
					if code, err := tryJSON(client, http.MethodPost, base+"/repair", spec, nil); err != nil || code != http.StatusOK {
						fail("repair %d: status %d err %v", victim, code, err)
						return
					}
				}
			}

			var got struct {
				ID string `json:"id"`
				core.Snapshot
			}
			if code, err := tryJSON(client, http.MethodGet, base, nil, &got); err != nil || code != http.StatusOK {
				fail("get: status %d err %v", code, err)
				return
			}
			if got.ID != info.ID {
				fail("get: id %q, want %q", got.ID, info.ID)
				return
			}
			if len(got.Members) != members {
				fail("get: %d members, want %d", len(got.Members), members)
				return
			}

			if code, err := tryJSON(client, http.MethodDelete, base, nil, nil); err != nil || code != http.StatusNoContent {
				fail("delete: status %d err %v", code, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
