package eventsim

import (
	"testing"

	"smrp/internal/graph"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.MustSchedule(3, func() { order = append(order, 3) })
	e.MustSchedule(1, func() { order = append(order, 1) })
	e.MustSchedule(2, func() { order = append(order, 2) })
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
	if ev, ok := e.queue.Peek(); ok {
		t.Errorf("event at %v left queued", ev.at)
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(5, func() { order = append(order, i) })
	}
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.MustSchedule(1, func() {
		times = append(times, e.Now())
		e.MustSchedule(2, func() {
			times = append(times, e.Now())
		})
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.MustSchedule(1, func() { fired = true })
	ev.Cancel()
	if !ev.cancel {
		t.Error("Cancel should mark the event")
	}
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestScheduleErrors(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay should error")
	}
	if _, err := e.Schedule(1, nil); err == nil {
		t.Error("nil fn should error")
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.MustSchedule(1, func() { fired = append(fired, e.Now()) })
	e.MustSchedule(5, func() { fired = append(fired, e.Now()) })
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || e.Now() != 3 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
	if ev, ok := e.queue.Peek(); !ok || ev.at != 5 {
		t.Errorf("next queued event %v, %v; want the one at 5", ev, ok)
	}
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || e.Now() != 5 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
}

func TestEventBudget(t *testing.T) {
	e := NewEngine()
	e.budget = 100
	var loop func()
	loop = func() { e.MustSchedule(1, loop) }
	e.MustSchedule(1, loop)
	if err := e.Run(Infinity); err == nil {
		t.Error("livelock should exhaust the budget and error")
	}
}

func TestEventAt(t *testing.T) {
	e := NewEngine()
	ev := e.MustSchedule(4, func() {})
	if ev.At() != 4 {
		t.Errorf("At = %v", ev.At())
	}
}

// lineNet builds a 3-node line network 0-1-2 with weights 1 and 2.
func lineNet(t *testing.T) (*Engine, *Network) {
	t.Helper()
	b := graph.New(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	g := b.Freeze()
	return e, NewNetwork(e, g)
}

func TestNetworkSendDelay(t *testing.T) {
	e, n := lineNet(t)
	var got []string
	var at Time
	n.Register(1, func(from graph.NodeID, msg Message) {
		s, ok := msg.(string)
		if !ok {
			t.Error("wrong payload type")
			return
		}
		got = append(got, s)
		at = e.Now()
		if from != 0 {
			t.Errorf("from = %d", from)
		}
	})
	if err := n.Send(0, 1, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "hello" || at != 1 {
		t.Errorf("got=%v at=%v", got, at)
	}
	if n.Sent != 1 || n.Delivered != 1 {
		t.Errorf("counters: sent=%d delivered=%d", n.Sent, n.Delivered)
	}
}

func TestNetworkSendNoSuchLink(t *testing.T) {
	_, n := lineNet(t)
	if err := n.Send(0, 2, "x"); err == nil {
		t.Error("send over non-edge should error")
	}
}

func TestNetworkFailedLinkLosesMessages(t *testing.T) {
	e, n := lineNet(t)
	delivered := false
	n.Register(1, func(graph.NodeID, Message) { delivered = true })
	n.FailLink(0, 1)
	if n.LinkUp(0, 1) {
		t.Error("failed link reported up")
	}
	if err := n.Send(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("message crossed a dead link")
	}
}

func TestNetworkMidFlightFailure(t *testing.T) {
	e, n := lineNet(t)
	delivered := false
	n.Register(1, func(graph.NodeID, Message) { delivered = true })
	if err := n.Send(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	// The cut happens while the message is in flight (at t=0.5 < delay 1).
	e.MustSchedule(0.5, func() { n.FailLink(0, 1) })
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("in-flight message survived a cut")
	}
}

func TestNetworkFailNode(t *testing.T) {
	e, n := lineNet(t)
	delivered := false
	n.Register(1, func(graph.NodeID, Message) { delivered = true })
	n.FailNode(1)
	if err := n.Send(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("message delivered to failed node")
	}
	if !n.Failed().NodeBlocked(1) {
		t.Error("failure mask should record the node")
	}
}

func TestSendAlong(t *testing.T) {
	e, n := lineNet(t)
	midDelivered := false
	var endAt Time
	var endFrom graph.NodeID
	n.Register(1, func(graph.NodeID, Message) { midDelivered = true })
	n.Register(2, func(from graph.NodeID, msg Message) {
		endAt = e.Now()
		endFrom = from
	})
	if err := n.SendAlong(graph.Path{0, 1, 2}, "j"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if midDelivered {
		t.Error("transit node handler must not fire for source-routed messages")
	}
	if endAt != 3 {
		t.Errorf("end-to-end delivery at %v, want 3 (1+2)", endAt)
	}
	if endFrom != 0 {
		t.Errorf("from = %d, want original sender", endFrom)
	}
}

func TestSendAlongErrors(t *testing.T) {
	_, n := lineNet(t)
	if err := n.SendAlong(graph.Path{0}, "x"); err == nil {
		t.Error("single-node path should error")
	}
	if err := n.SendAlong(graph.Path{0, 2}, "x"); err == nil {
		t.Error("non-edge hop should error")
	}
}

func TestSendAlongCutMidPath(t *testing.T) {
	e, n := lineNet(t)
	delivered := false
	n.Register(2, func(graph.NodeID, Message) { delivered = true })
	if err := n.SendAlong(graph.Path{0, 1, 2}, "x"); err != nil {
		t.Fatal(err)
	}
	// Cut the second hop while the message is on the first.
	e.MustSchedule(0.5, func() { n.FailLink(1, 2) })
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("message crossed a cut on a later hop")
	}
}
