package protocol

import (
	"errors"
	"math"
	"slices"
	"testing"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// testInstance builds a small SMRP instance for retry-path unit tests.
func testInstance(t *testing.T, cfg Config) *SMRPInstance {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: 20, Alpha: 0.4, Beta: 0.4, EnsureConnected: true,
	}, topology.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestRetryDelayBackoffAndCap pins the bounded-exponential-backoff schedule:
// retryTimeout · retryBackoff^attempt, capped at HoldTime (16), plus a
// jitter below retryJitter.
func TestRetryDelayBackoffAndCap(t *testing.T) {
	inst := testInstance(t, DefaultConfig())

	want := []float64{5, 10, 16, 16, 16}
	for attempt, w := range want {
		if got := float64(inst.retryDelay(attempt)); got < w || got >= w+float64(retryJitter) {
			t.Errorf("retryDelay(%d) = %v, want in [%v, %v)", attempt, got, w, w+float64(retryJitter))
		}
	}
}

// TestRetryDelayJitterDeterministic pins the deterministic-jitter contract:
// two instances draw identical delay streams, and the jitter varies from one
// draw to the next.
func TestRetryDelayJitterDeterministic(t *testing.T) {
	a, b := testInstance(t, DefaultConfig()), testInstance(t, DefaultConfig())
	var streamA, streamB []float64
	for attempt := 0; attempt < 8; attempt++ {
		streamA = append(streamA, float64(a.retryDelay(attempt)))
		streamB = append(streamB, float64(b.retryDelay(attempt)))
	}
	if !slices.Equal(streamA, streamB) {
		t.Fatalf("two instances drew different delay streams:\n%v\n%v", streamA, streamB)
	}
	// From attempt 2 on the backoff is capped, so only the jitter moves.
	if capped := streamA[2:]; slices.Min(capped) == slices.Max(capped) {
		t.Fatalf("capped delays %v carry no jitter", capped)
	}
}

// TestInjectErrorsTyped pins the typed sentinels of the event-injection API.
func TestInjectErrorsTyped(t *testing.T) {
	inst := testInstance(t, DefaultConfig())

	if err := inst.InjectFailureSet(-1, failure.LinkDown(0, 1)); !errors.Is(err, ErrPastEvent) {
		t.Errorf("InjectFailureSet(past) = %v, want ErrPastEvent", err)
	}
	if err := inst.InjectRepair(-1, failure.LinkDown(0, 1)); !errors.Is(err, ErrPastEvent) {
		t.Errorf("InjectRepair(past) = %v, want ErrPastEvent", err)
	}
	if err := inst.InjectFailureSet(10); !errors.Is(err, failure.ErrBadSchedule) {
		t.Errorf("InjectFailureSet(empty) = %v, want ErrBadSchedule", err)
	}
	// A node outside the topology is refused at injection, so it never
	// reaches a mask (whose words are sized by node ID), and so is a link
	// the topology lacks, which would leave the session degraded over
	// nothing: nothing is scheduled, not even a schedule's valid first event.
	g := inst.net.Graph()
	e := g.Edges()[0]
	cut := failure.LinkDown(e.A, e.B)
	absent := graph.Invalid
	for v := graph.NodeID(0); absent == graph.Invalid; v++ {
		if v != e.A && !g.HasEdge(e.A, v) {
			absent = v
		}
	}
	for _, tc := range []struct {
		f    failure.Failure
		want error
	}{
		{failure.LinkDown(0, 1<<40), graph.ErrUnknownNode},
		{failure.NodeDown(1 << 40), graph.ErrUnknownNode},
		{failure.LinkDown(e.A, absent), graph.ErrUnknownEdge},
		{failure.LinkDown(7, 7), graph.ErrUnknownEdge},
	} {
		f := tc.f
		sched := failure.Schedule{Events: []failure.Event{
			{At: 10, Failures: []failure.Failure{cut}},
			{At: 20, Failures: []failure.Failure{f}},
		}}
		for name, err := range map[string]error{
			"InjectFailure":    inst.InjectFailure(10, f),
			"InjectFailureSet": inst.InjectFailureSet(10, cut, f),
			"InjectRepair":     inst.InjectRepair(10, f),
			"InjectSchedule":   inst.InjectSchedule(sched),
		} {
			if !errors.Is(err, tc.want) {
				t.Errorf("%s(%v) = %v, want %v", name, f, err, tc.want)
			}
		}
		spf, err := NewSPFInstance(g, 0, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := spf.InjectFailure(10, f); !errors.Is(err, tc.want) {
			t.Errorf("SPFInstance.InjectFailure(%v) = %v, want %v", f, err, tc.want)
		}
	}
	// A NaN time is neither past nor future, and would set the clock to NaN.
	nan := eventsim.Time(math.NaN())
	spfNaN, err := NewSPFInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"ScheduleJoin":              inst.ScheduleJoin(nan, 3),
		"InjectFailure":             inst.InjectFailure(nan, cut),
		"InjectFailureSet":          inst.InjectFailureSet(nan, cut),
		"InjectRepair":              inst.InjectRepair(nan, cut),
		"SPFInstance.ScheduleJoin":  spfNaN.ScheduleJoin(nan, 3),
		"SPFInstance.InjectFailure": spfNaN.InjectFailure(nan, cut),
	} {
		if err == nil {
			t.Errorf("%s(NaN) accepted", name)
		}
	}
	if err := inst.InjectSchedule(failure.Schedule{Events: []failure.Event{
		{At: math.NaN(), Failures: []failure.Failure{cut}},
	}}); !errors.Is(err, failure.ErrBadSchedule) {
		t.Errorf("InjectSchedule(NaN) = %v, want ErrBadSchedule", err)
	}
	if err := spfNaN.Run(eventsim.Infinity); err != nil {
		t.Fatal(err)
	}
	if now := spfNaN.Engine().Now(); now != 0 {
		t.Errorf("refused NaN injections moved the SPF clock to %v", now)
	}
	// Nothing was queued, NaN or refused: running to the end fires no event,
	// so the clock stays put and no component is down.
	if err := inst.Run(eventsim.Infinity); err != nil {
		t.Fatal(err)
	}
	if now := inst.Engine().Now(); now != 0 || !inst.Network().Failed().IsEmpty() {
		t.Errorf("refused injections scheduled events: clock at %v, failed %v", now, inst.Network().Failed())
	}

	bad := DefaultConfig()
	bad.HoldTime = bad.RefreshInterval // needs HoldTime > RefreshInterval
	if err := bad.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Validate(bad hold time) = %v, want ErrBadConfig", err)
	}
}
