package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"smrp/internal/graph"
)

// collect reads frames from an SSE channel until either want frames arrived
// or the timeout elapses.
func collect(t *testing.T, ch <-chan sseEvent, want int, timeout time.Duration) []sseEvent {
	t.Helper()
	var out []sseEvent
	deadline := time.After(timeout)
	for len(out) < want {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out with %d/%d frames: %+v", len(out), want, out)
		}
	}
	return out
}

// waitFor polls cond until it holds or the deadline elapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSSEOrderMatchesActorOrder drives a scripted command sequence and
// asserts the feed delivers exactly the events the actor applied, in actor
// order, with contiguous sequence numbers.
func TestSSEOrderMatchesActorOrder(t *testing.T) {
	_, ts := testServer(t, testGraph(t))
	c := ts.Client()
	id := createSession(t, c, ts.URL, 0)
	base := ts.URL + "/v1/sessions/" + id

	ch, cancel := openSSE(t, ts.URL, id)
	defer cancel()

	// The stream must open with a baseline snapshot before any events.
	first := collect(t, ch, 1, 5*time.Second)[0]
	if first.Kind != string(EventSnapshot) || first.ID != 0 {
		t.Fatalf("first frame = %+v, want snapshot id 0", first)
	}

	// Scripted lifecycle: join 3, join 5, fail node 2 (parks 5), repair
	// node 2 (readmits 5), leave 3.
	doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 3}, nil)
	doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 5}, nil)
	doJSON(t, c, http.MethodPost, base+"/fail",
		FailRequest{FailureSpec: FailureSpec{Nodes: []graph.NodeID{2}}}, nil)
	doJSON(t, c, http.MethodPost, base+"/repair",
		FailureSpec{Nodes: []graph.NodeID{2}}, nil)
	doJSON(t, c, http.MethodPost, base+"/leave", NodeRequest{Node: 3}, nil)

	// join, join, fail, park, repair, readmit, leave = 7 events.
	frames := collect(t, ch, 7, 5*time.Second)
	wantKinds := []EventKind{
		EventJoin, EventJoin, EventFail, EventPark, EventRepair, EventReadmit, EventLeave,
	}
	wantNodes := []graph.NodeID{3, 5, 0, 5, 0, 5, 3}
	for i, fr := range frames {
		if fr.Kind != string(wantKinds[i]) {
			t.Fatalf("frame %d kind = %q, want %q (frames %+v)", i, fr.Kind, wantKinds[i], frames)
		}
		if fr.ID != uint64(i+1) {
			t.Fatalf("frame %d seq = %d, want %d (contiguous actor order)", i, fr.ID, i+1)
		}
		if fr.Event.Seq != fr.ID {
			t.Fatalf("frame %d: header id %d != payload seq %d", i, fr.ID, fr.Event.Seq)
		}
		if wantNodes[i] != 0 && fr.Event.Node != wantNodes[i] {
			t.Fatalf("frame %d node = %d, want %d", i, fr.Event.Node, wantNodes[i])
		}
		if fr.Event.Session != id {
			t.Fatalf("frame %d session = %q, want %q", i, fr.Event.Session, id)
		}
	}
}

// TestSSECoalescesLagIntoSnapshot simulates a slow consumer with a blocking
// writeSSE, overflows the subscriber buffer while the pump is stalled, and
// verifies the resulting lag gap is healed by exactly one coalesced
// snapshot: sequence numbers never decrease, the discontinuity is bridged by
// a snapshot frame whose snapshot reflects everything missed, and live
// events resume in actor order afterwards.
func TestSSECoalescesLagIntoSnapshot(t *testing.T) {
	g := testGraph(t)
	reg := NewRegistry(g, RegistryConfig{})
	t.Cleanup(reg.Close)
	a, err := reg.Create(CreateSessionRequest{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	sub := a.hub.subscribe()
	if sub == nil {
		t.Fatal("subscribe failed")
	}
	defer a.hub.unsubscribe(sub)

	// The pump's consumer is the test: every frame is handed over on an
	// unbuffered channel, so not reading stalls the pump exactly like a
	// slow SSE client with full socket buffers.
	frameCh := make(chan Event)
	done := make(chan struct{})
	pumpCtx, cancelPump := context.WithCancel(ctx)
	defer cancelPump()
	go func() {
		defer close(done)
		streamEvents(pumpCtx, a, sub, func(ev Event) bool {
			select {
			case frameCh <- ev:
				return true
			case <-pumpCtx.Done():
				return false
			}
		})
	}()
	next := func() Event {
		select {
		case ev := <-frameCh:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for frame")
			return Event{}
		}
	}

	// Baseline snapshot at seq 0 (no events yet).
	if f := next(); f.Kind != EventSnapshot || f.Seq != 0 {
		t.Fatalf("baseline = %+v, want snapshot seq 0", f)
	}

	// Park the pump deterministically: publish one event and wait until the
	// pump has taken it off the subscriber buffer — it is now blocked in
	// writeSSE holding event 1, and will consume nothing else.
	if _, err := a.Join(ctx, 3); err != nil { // seq 1
		t.Fatalf("join: %v", err)
	}
	waitFor(t, "pump to pick up event 1", func() bool { return len(sub.ch) == 0 })

	// Publish 199 more events (seq 2..200) into the stalled subscriber:
	// 2..65 fill the buffer, 66..200 are dropped.
	if err := a.Leave(ctx, 3); err != nil { // seq 2
		t.Fatalf("leave: %v", err)
	}
	for i := 0; i < 99; i++ {
		if _, err := a.Join(ctx, 3); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if err := a.Leave(ctx, 3); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
	}
	if got := len(sub.ch); got != subBuf {
		t.Fatalf("subscriber buffer holds %d events, want full %d", got, subBuf)
	}

	// Resume consuming: event 1 plus the buffered 2..65 arrive contiguously.
	for want := uint64(1); want <= uint64(subBuf)+1; want++ {
		f := next()
		if f.Seq != want {
			t.Fatalf("frame seq = %d, want %d (contiguous buffered prefix)", f.Seq, want)
		}
	}

	// The next live event arrives with a sequence gap (66..200 were
	// dropped), which the pump must heal with a coalesced snapshot.
	if _, err := a.Join(ctx, 3); err != nil { // seq 201
		t.Fatalf("live join: %v", err)
	}
	heal := next()
	if heal.Kind != EventSnapshot {
		t.Fatalf("gap healed by %q (seq %d), want snapshot", heal.Kind, heal.Seq)
	}
	if heal.Seq < 201 {
		t.Fatalf("coalesced snapshot seq = %d, want >= 201 (must cover the dropped events)", heal.Seq)
	}
	if len(heal.Detail) == 0 {
		t.Fatal("coalesced snapshot has no state payload")
	}
	// Events at or before the snapshot are skipped; a fresh event published
	// after the heal must flow through live.
	if err := a.Leave(ctx, 3); err != nil { // seq 202 > heal.Seq
		t.Fatalf("live leave: %v", err)
	}
	f := next()
	if f.Seq <= heal.Seq {
		t.Fatalf("post-snapshot frame seq = %d, want > %d", f.Seq, heal.Seq)
	}

	cancelPump()
	<-done
}

// TestSSEFeedEndsOnSessionDelete verifies the feed terminates (after a final
// closed event) when the session is deleted.
func TestSSEFeedEndsOnSessionDelete(t *testing.T) {
	_, ts := testServer(t, testGraph(t))
	c := ts.Client()
	id := createSession(t, c, ts.URL, 0)

	ch, cancel := openSSE(t, ts.URL, id)
	defer cancel()
	collect(t, ch, 1, 5*time.Second) // baseline snapshot

	doJSON(t, c, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil, nil)

	var last sseEvent
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				if last.Kind != string(EventClosed) {
					t.Fatalf("stream ended on %q, want final closed event", last.Kind)
				}
				return
			}
			last = ev
		case <-deadline:
			t.Fatal("stream did not end after session delete")
		}
	}
}

// TestEventDetailBuiltOnlyForSubscribers pins where an event's payload is
// built: not at all while nobody listens (sequence numbers advance all the
// same), and once, shared by every subscriber, when somebody does.
func TestEventDetailBuiltOnlyForSubscribers(t *testing.T) {
	a := &Actor{ID: "s", hub: newHub()}
	built := 0
	detail := func() any { built++; return map[string]int{"n": built} }

	a.emit(Event{Kind: EventJoin, Node: 1}, detail)
	if built != 0 || a.EventSeq() != 1 {
		t.Fatalf("no subscriber: detail built %d times, seq %d; want 0 and 1", built, a.EventSeq())
	}
	s1, s2 := a.hub.subscribe(), a.hub.subscribe()
	a.emit(Event{Kind: EventJoin, Node: 2}, detail)
	a.emit(Event{Kind: EventLeave, Node: 2}, nil)
	if built != 1 {
		t.Fatalf("two subscribers: detail built %d times, want once", built)
	}
	e1, e2 := <-s1.ch, <-s2.ch
	if e1.Seq != 2 || e2.Seq != 2 || string(e1.Detail) != `{"n":1}` || &e1.Detail[0] != &e2.Detail[0] {
		t.Fatalf("subscribers got %+v and %+v; want seq 2 and one shared payload", e1, e2)
	}
	if e := <-s1.ch; e.Seq != 3 || e.Kind != EventLeave || e.Detail != nil {
		t.Fatalf("event without a payload arrived as %+v", e)
	}
}
