package protocol

import (
	"slices"
	"testing"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestSequentialFailures drives two persistent failures through one SMRP
// instance: the session must survive both, never using any failed component.
func TestSequentialFailures(t *testing.T) {
	rng := topology.NewRNG(777)
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: 60, Alpha: 0.4, Beta: 0.3, EnsureConnected: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	source := graph.NodeID(0)
	for n := 1; n < g.NumNodes(); n++ {
		if g.Degree(graph.NodeID(n)) > g.Degree(source) {
			source = graph.NodeID(n)
		}
	}
	inst, err := NewSMRPInstance(g, source, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var members []graph.NodeID
	for _, id := range rng.Sample(60, 11) {
		if graph.NodeID(id) != source && len(members) < 10 {
			members = append(members, graph.NodeID(id))
		}
	}
	for k, m := range members {
		if err := inst.ScheduleJoin(eventsim.Time(k+1), m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Run(100); err != nil {
		t.Fatal(err)
	}

	f1, err := failure.WorstCaseFor(inst.Session().Tree(), members[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.InjectFailure(150, f1); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(400); err != nil {
		t.Fatal(err)
	}
	tr := inst.Session().Tree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("after first failure: %v", err)
	}

	// Second failure targets another member on the healed tree.
	var second graph.NodeID = graph.Invalid
	for _, m := range tr.Members() {
		if m != members[0] {
			second = m
			break
		}
	}
	if second == graph.Invalid {
		t.Skip("no second member survived the first failure")
	}
	f2, err := failure.WorstCaseFor(tr, second)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Edge == f1.Edge {
		t.Skip("same worst-case link twice; nothing new to test")
	}
	if err := inst.InjectFailure(500, f2); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(900); err != nil {
		t.Fatal(err)
	}
	tr = inst.Session().Tree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("after second failure: %v", err)
	}
	if slices.Contains(tr.Edges(), f1.Edge) || slices.Contains(tr.Edges(), f2.Edge) {
		t.Error("healed tree uses a failed link")
	}
	// Data still flows to every surviving member.
	deliv := inst.Multicast()
	for _, m := range tr.Members() {
		if _, ok := deliv[m]; !ok {
			t.Errorf("member %d receives no data after double failure", m)
		}
	}
}
