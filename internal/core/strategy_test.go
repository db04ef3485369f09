package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestSMRPStrategyEquivalence pins the api_redesign's zero-behavior-change
// guarantee: a session configured with the explicit SMRP strategy must
// reproduce, bit-exactly, every Recover/Repair/Reconcile report and the
// final session state of a default (nil-Strategy) session across randomized
// failure schedules.
func TestSMRPStrategyEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		seed    uint64
		n       int
		members int
	}{
		{"small-sparse", 0x51AA, 24, 5},
		{"medium", 0x51AB, 40, 8},
		{"dense-members", 0x51AC, 60, 12},
		{"large", 0x51AD, 80, 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := topology.NewRNG(tc.seed)
			g, err := topology.Waxman(topology.WaxmanConfig{
				N: tc.n, Alpha: 0.2, Beta: 0.35, EnsureConnected: true,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			g.EnableSPFCache()
			source := graph.NodeID(0)
			for n := 1; n < g.NumNodes(); n++ {
				if g.Degree(graph.NodeID(n)) > g.Degree(source) {
					source = graph.NodeID(n)
				}
			}
			var members []graph.NodeID
			for _, id := range rng.Sample(tc.n, tc.members+1) {
				if graph.NodeID(id) != source && len(members) < tc.members {
					members = append(members, graph.NodeID(id))
				}
			}
			sched, err := failure.RandomSchedule(g, source, members, failure.DefaultChaosConfig(), rng)
			if err != nil {
				t.Fatal(err)
			}

			def, err := NewSession(g, source, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Strategy = NewSMRPStrategy()
			strat, err := NewSession(g, source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, sess := range []*Session{def, strat} {
				_, joinErrs := sess.JoinBatch(members)
				for i, err := range joinErrs {
					if err != nil {
						t.Fatalf("join %d: %v", members[i], err)
					}
				}
			}

			for k, ev := range sched.Events {
				if len(ev.Failures) > 0 {
					// The deprecated entry point on the default session, the
					// blessed one on the strategy session: both must produce
					// the same report through the same reconcile engine.
					repA, errA := def.Recover(ev.Failures...)
					repB, errB := strat.Recover(ev.Failures...)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("event %d: heal err %v vs strategy err %v", k, errA, errB)
					}
					if errA != nil {
						continue
					}
					if !reflect.DeepEqual(repA, repB) {
						t.Fatalf("event %d: heal reports diverge:\ndefault:  %+v\nstrategy: %+v", k, repA, repB)
					}
				}
				if len(ev.Repairs) > 0 {
					repA, errA := def.Repair(ev.Repairs...)
					repB, errB := strat.Repair(ev.Repairs...)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("event %d: repair err %v vs %v", k, errA, errB)
					}
					if errA == nil && !reflect.DeepEqual(repA, repB) {
						t.Fatalf("event %d: repair reports diverge:\ndefault:  %+v\nstrategy: %+v", k, repA, repB)
					}
				}
				if k%3 == 0 {
					repA, errA := def.Reconcile()
					repB, errB := strat.Reconcile()
					if (errA == nil) != (errB == nil) {
						t.Fatalf("event %d: reconcile err %v vs %v", k, errA, errB)
					}
					if errA == nil && !reflect.DeepEqual(repA, repB) {
						t.Fatalf("event %d: reconcile reports diverge", k)
					}
				}
				if diff := sessionDiff(def, strat); diff != "" {
					t.Fatalf("event %d: sessions diverge: %s", k, diff)
				}
			}
			if def.Stats() != strat.Stats() {
				t.Errorf("stats diverge:\ndefault:  %+v\nstrategy: %+v", def.Stats(), strat.Stats())
			}
		})
	}
}

// sessionDiff compares the externally observable state of two sessions and
// describes the first divergence ("" when identical).
func sessionDiff(a, b *Session) string {
	ta, tb := a.Tree(), b.Tree()
	na, nb := ta.Nodes(), tb.Nodes()
	if !reflect.DeepEqual(na, nb) {
		return fmt.Sprintf("tree nodes %v vs %v", na, nb)
	}
	if ma, mb := ta.Members(), tb.Members(); !reflect.DeepEqual(ma, mb) {
		return fmt.Sprintf("members %v vs %v", ma, mb)
	}
	for _, n := range na {
		pa, oka := ta.Parent(n)
		pb, okb := tb.Parent(n)
		if pa != pb || oka != okb {
			return fmt.Sprintf("parent of %d: %d vs %d", n, pa, pb)
		}
	}
	if pa, pb := a.Parked(), b.Parked(); !reflect.DeepEqual(pa, pb) {
		return fmt.Sprintf("parked %v vs %v", pa, pb)
	}
	return ""
}

// TestStrategyDispatch verifies the seam's plumbing: a configured strategy
// receives Recover calls, the Strategy accessor reflects the configuration,
// and an unbound strategy reports ErrUnboundStrategy.
func TestStrategyDispatch(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = NewSMRPStrategy()
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Strategy().Name(); got != "smrp" {
		t.Errorf("Strategy().Name() = %q, want smrp", got)
	}
	// Default sessions expose the implicit SMRP strategy through the same
	// accessor.
	d, err := NewSession(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Strategy().Name(); got != "smrp" {
		t.Errorf("default Strategy().Name() = %q, want smrp", got)
	}
	if got := d.Strategy().StateBytes(); got != 0 {
		t.Errorf("SMRP StateBytes = %d, want 0", got)
	}

	unbound := NewSMRPStrategy()
	if _, err := unbound.Recover(nil); !errors.Is(err, ErrUnboundStrategy) {
		t.Errorf("unbound Recover error = %v, want ErrUnboundStrategy", err)
	}
}
