package protocol

import (
	"errors"
	"slices"
	"testing"

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
// RetryTimeout · RetryBackoff^attempt, capped at HoldTime, no jitter.
func TestRetryDelayBackoffAndCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryTimeout = 5
	cfg.RetryBackoff = 2
	cfg.HoldTime = 16
	cfg.RetryJitter = 0 // pure backoff
	inst := testInstance(t, cfg)

	want := []float64{5, 10, 16, 16, 16}
	for attempt, w := range want {
		if got := float64(inst.retryDelay(attempt)); got != w {
			t.Errorf("retryDelay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

// TestRetryDelayJitterDeterministic pins the deterministic-jitter contract:
// equal JitterSeed ⇒ identical delay streams; the jitter never exceeds
// RetryJitter; and a different seed draws a different stream.
func TestRetryDelayJitterDeterministic(t *testing.T) {
	mk := func(seed uint64) *SMRPInstance {
		cfg := DefaultConfig()
		cfg.JitterSeed = seed
		return testInstance(t, cfg)
	}
	a, b := mk(7), mk(7)
	var streamA, streamB []float64
	for attempt := 0; attempt < 8; attempt++ {
		da, db := float64(a.retryDelay(attempt)), float64(b.retryDelay(attempt))
		streamA, streamB = append(streamA, da), append(streamB, db)
		base := float64(a.cfg.RetryTimeout)
		for k := 0; k < attempt; k++ {
			base *= a.cfg.RetryBackoff
		}
		if base > float64(a.cfg.HoldTime) {
			base = float64(a.cfg.HoldTime)
		}
		if da < base || da > base+float64(a.cfg.RetryJitter) {
			t.Errorf("retryDelay(%d) = %v outside [%v, %v]", attempt, da, base, base+float64(a.cfg.RetryJitter))
		}
	}
	if !slices.Equal(streamA, streamB) {
		t.Fatalf("equal seeds drew different delay streams:\n%v\n%v", streamA, streamB)
	}
	c := mk(8)
	var streamC []float64
	for attempt := 0; attempt < 8; attempt++ {
		streamC = append(streamC, float64(c.retryDelay(attempt)))
	}
	if slices.Equal(streamA, streamC) {
		t.Fatal("different seeds drew identical delay streams")
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
	pending := inst.Engine().Pending()
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
	if inst.Engine().Pending() != pending {
		t.Errorf("refused injections scheduled %d events", inst.Engine().Pending()-pending)
	}

	bad := DefaultConfig()
	bad.HoldTime = bad.RefreshInterval // needs HoldTime > RefreshInterval
	if err := bad.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Validate(bad hold time) = %v, want ErrBadConfig", err)
	}
	bad = DefaultConfig()
	bad.RetryBackoff = -1
	if err := bad.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Validate(negative backoff) = %v, want ErrBadConfig", err)
	}
}
