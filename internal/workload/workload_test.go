package workload

import (
	"testing"
	"testing/quick"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

func population(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i + 1) // node 0 reserved for the source
	}
	return out
}

func TestEventKindString(t *testing.T) {
	if Join.String() != "join" || Leave.String() != "leave" {
		t.Error("kind strings wrong")
	}
	if EventKind(0).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Nodes: population(10), Horizon: 100, ArrivalRate: 1, MeanLifetime: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Horizon: 100},
		{Nodes: population(5), Horizon: 0},
		{Nodes: population(5), Horizon: 10, ArrivalRate: -1},
		{Nodes: population(5), Horizon: 10, MeanLifetime: -1},
		{Nodes: population(5), Horizon: 10, InitialMembers: 6},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestGenerateInitialOnly(t *testing.T) {
	cfg := Config{Nodes: population(20), Horizon: 100, InitialMembers: 8}
	s, err := Generate(cfg, topology.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 8 {
		t.Errorf("%d events, want the 8 initial joins", len(s.Events))
	}
	for _, e := range s.Events {
		if e.At != 0 || e.Kind != Join {
			t.Errorf("unexpected event %+v", e)
		}
	}
}

func TestGenerateChurnInvariants(t *testing.T) {
	cfg := Config{
		Nodes:          population(30),
		Horizon:        200,
		ArrivalRate:    0.5,
		MeanLifetime:   20,
		InitialMembers: 5,
	}
	s, err := Generate(cfg, topology.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// Time-ordered.
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
	// No node is double-joined and no leave without join.
	active := map[graph.NodeID]bool{}
	joins, leaves := 0, 0
	for _, e := range s.Events {
		switch e.Kind {
		case Join:
			if active[e.Node] {
				t.Fatalf("node %d joined twice while active", e.Node)
			}
			active[e.Node] = true
			joins++
		case Leave:
			if !active[e.Node] {
				t.Fatalf("node %d left without being a member", e.Node)
			}
			delete(active, e.Node)
			leaves++
		}
	}
	if joins == 0 || leaves == 0 {
		t.Errorf("expected churn, got %d joins and %d leaves", joins, leaves)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := Config{Nodes: population(30), Horizon: 100, ArrivalRate: 1, MeanLifetime: 15, InitialMembers: 3}
	a, err := Generate(cfg, topology.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, topology.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestGenerateQuickProperty churn invariants hold across arbitrary seeds.
func TestGenerateQuickProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		cfg := Config{
			Nodes:          population(15),
			Horizon:        80,
			ArrivalRate:    0.8,
			MeanLifetime:   10,
			InitialMembers: 4,
		}
		s, err := Generate(cfg, topology.NewRNG(seed))
		if err != nil {
			return false
		}
		active := map[graph.NodeID]bool{}
		for _, e := range s.Events {
			if e.At < 0 || e.At > cfg.Horizon {
				return false
			}
			switch e.Kind {
			case Join:
				if active[e.Node] {
					return false
				}
				active[e.Node] = true
			case Leave:
				if !active[e.Node] {
					return false
				}
				delete(active, e.Node)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
