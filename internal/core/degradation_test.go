package core

import (
	"errors"
	"slices"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
)

// lineGraph builds 0—1—…—(n-1) with unit weights.
func lineGraph(t *testing.T, n int) *graph.Graph { return chainGraph(t, n, n-1) }

// ringGraph closes the line into a cycle.
func ringGraph(t *testing.T, n int) *graph.Graph { return chainGraph(t, n, n) }

// chainGraph links node i to node (i+1) mod n at unit weight, for i below
// links.
func chainGraph(t *testing.T, n, links int) *graph.Graph {
	t.Helper()
	b := graph.New(n)
	for i := 0; i < links; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDegradationPartitionRepair is the table-driven degraded-member state
// machine test: failures that partition a member must park it (not corrupt
// the session), and Repair must re-admit exactly the members it reconnects.
func TestDegradationPartitionRepair(t *testing.T) {
	cases := []struct {
		name            string
		build           func(t *testing.T) *graph.Graph
		members         []graph.NodeID
		fail            []failure.Failure
		wantUnrecovered []graph.NodeID
		wantParked      []graph.NodeID
		repair          []failure.Failure
		wantReadmitted  []graph.NodeID
		wantStillParked []graph.NodeID
	}{
		{
			name:            "line cut strands both downstream members",
			build:           func(t *testing.T) *graph.Graph { return lineGraph(t, 6) },
			members:         []graph.NodeID{3, 5},
			fail:            []failure.Failure{failure.LinkDown(2, 3)},
			wantUnrecovered: []graph.NodeID{3, 5},
			wantParked:      []graph.NodeID{3, 5},
			repair:          []failure.Failure{failure.LinkDown(2, 3)},
			wantReadmitted:  []graph.NodeID{3, 5},
		},
		{
			name:            "node failure strands only the far member",
			build:           func(t *testing.T) *graph.Graph { return lineGraph(t, 6) },
			members:         []graph.NodeID{3, 5},
			fail:            []failure.Failure{failure.NodeDown(4)},
			wantUnrecovered: []graph.NodeID{5},
			wantParked:      []graph.NodeID{5},
			repair:          []failure.Failure{failure.NodeDown(4)},
			wantReadmitted:  []graph.NodeID{5},
		},
		{
			name:  "ring survives one cut, parks on full isolation",
			build: func(t *testing.T) *graph.Graph { return ringGraph(t, 6) },
			members: []graph.NodeID{
				3,
			},
			fail:            []failure.Failure{failure.LinkDown(2, 3), failure.LinkDown(3, 4)},
			wantUnrecovered: []graph.NodeID{3},
			wantParked:      []graph.NodeID{3},
			// Partial repair: one of the two incident links is enough.
			repair:         []failure.Failure{failure.LinkDown(3, 4)},
			wantReadmitted: []graph.NodeID{3},
		},
		{
			name:            "partial repair leaves the far member parked",
			build:           func(t *testing.T) *graph.Graph { return lineGraph(t, 6) },
			members:         []graph.NodeID{3, 5},
			fail:            []failure.Failure{failure.LinkDown(2, 3), failure.LinkDown(4, 5)},
			wantUnrecovered: []graph.NodeID{3, 5},
			wantParked:      []graph.NodeID{3, 5},
			repair:          []failure.Failure{failure.LinkDown(2, 3)},
			wantReadmitted:  []graph.NodeID{3},
			wantStillParked: []graph.NodeID{5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(tc.build(t), 0, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range tc.members {
				if _, err := s.Join(m); err != nil {
					t.Fatalf("Join(%d) = %v", m, err)
				}
			}
			rep, err := s.Recover(tc.fail...)
			if err != nil {
				t.Fatalf("Recover(%v) = %v", tc.fail, err)
			}
			if !slices.Equal(rep.Unrecovered, tc.wantUnrecovered) {
				t.Fatalf("Unrecovered = %v, want %v", rep.Unrecovered, tc.wantUnrecovered)
			}
			if got := s.Parked(); !slices.Equal(got, tc.wantParked) {
				t.Fatalf("Parked() = %v, want %v", got, tc.wantParked)
			}
			for _, m := range tc.wantParked {
				if !s.IsParked(m) {
					t.Errorf("IsParked(%d) = false, want true", m)
				}
				if s.Tree().IsMember(m) {
					t.Errorf("parked member %d still on the tree", m)
				}
			}
			// The degraded tree must remain structurally valid.
			if err := s.Tree().Validate(); err != nil {
				t.Fatalf("degraded tree invalid: %v", err)
			}

			rr, err := s.Repair(tc.repair...)
			if err != nil {
				t.Fatalf("Repair(%v) = %v", tc.repair, err)
			}
			if !slices.Equal(rr.Readmitted, tc.wantReadmitted) {
				t.Fatalf("Readmitted = %v, want %v", rr.Readmitted, tc.wantReadmitted)
			}
			if !slices.Equal(rr.StillParked, tc.wantStillParked) {
				t.Fatalf("StillParked = %v, want %v", rr.StillParked, tc.wantStillParked)
			}
			for _, m := range tc.wantReadmitted {
				if s.IsParked(m) || !s.Tree().IsMember(m) {
					t.Errorf("member %d not re-admitted cleanly", m)
				}
			}
			if err := s.Tree().Validate(); err != nil {
				t.Fatalf("repaired tree invalid: %v", err)
			}
			if st := s.Stats(); st.Readmissions != len(tc.wantReadmitted) {
				t.Errorf("Stats().Readmissions = %d, want %d", st.Readmissions, len(tc.wantReadmitted))
			}
		})
	}
}

// TestDegradationErrorIdentity pins the typed-sentinel contract of the
// degraded paths: every error must be matchable with errors.Is.
func TestDegradationErrorIdentity(t *testing.T) {
	g := lineGraph(t, 6)
	s, err := NewSession(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(3); err != nil {
		t.Fatal(err)
	}

	// Join while partitioned → ErrPartitioned, and the joiner is parked.
	s.ApplyFailure(failure.LinkDown(2, 3))
	if _, err := s.Join(4); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Join under partition = %v, want ErrPartitioned", err)
	}
	if !s.IsParked(4) {
		t.Fatal("partitioned joiner must be parked")
	}

	// Join of a failed node → failure.ErrMemberFailed.
	s.ApplyFailure(failure.NodeDown(5))
	if _, err := s.Join(5); !errors.Is(err, failure.ErrMemberFailed) {
		t.Fatalf("Join of failed node = %v, want ErrMemberFailed", err)
	}

	// Out-of-range member → graph.ErrUnknownNode via the core alias, on both
	// sides of the range and at its first ID past the end.
	for _, nr := range []graph.NodeID{-1, graph.NodeID(s.Graph().NumNodes()), 99} {
		if _, err := s.Join(nr); !errors.Is(err, ErrUnknownNode) {
			t.Fatalf("Join(%d) = %v, want ErrUnknownNode", nr, err)
		}
		if err := s.Leave(nr); !errors.Is(err, ErrUnknownNode) {
			t.Fatalf("Leave(%d) = %v, want ErrUnknownNode", nr, err)
		}
	}
	if _, err := s.Join(3); !errors.Is(err, ErrAlreadyMember) {
		t.Fatalf("re-Join = %v, want ErrAlreadyMember", err)
	}

	// Repair everything: parked member 4 comes back, the failed-node member
	// never parked (it was refused, not degraded).
	rr, err := s.Repair(failure.LinkDown(2, 3), failure.NodeDown(5))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rr.Readmitted, []graph.NodeID{4}) {
		t.Fatalf("Readmitted = %v, want [4]", rr.Readmitted)
	}
	if len(rr.Connections) != 1 || rr.Connections[0].Last() != 4 || !s.Tree().OnTree(rr.Connections[0][0]) {
		t.Fatalf("Connections = %v, want one path from the tree to 4", rr.Connections)
	}
	if len(rr.StillParked) != 0 {
		t.Fatalf("StillParked = %v, want empty", rr.StillParked)
	}
	if !s.FailedMask().IsEmpty() {
		t.Fatal("mask must be empty after full repair")
	}
}

// TestLeaveParkedMember: a parked member that leaves is gone — it counts as a
// leave, is no longer parked, and the repair that reconnects it must not
// re-admit a receiver that asked to go. (Regression: Leave answered
// ErrNotMember and the member stayed parked.)
func TestLeaveParkedMember(t *testing.T) {
	s, err := NewSession(lineGraph(t, 4), 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(failure.LinkDown(1, 2)); err != nil {
		t.Fatal(err)
	}
	if !s.IsParked(3) {
		t.Fatal("member 3 should be parked behind the cut")
	}
	leaves := s.Stats().Leaves
	if err := s.Leave(3); err != nil {
		t.Fatalf("Leave(parked) = %v, want nil", err)
	}
	if s.IsParked(3) || s.Stats().Leaves != leaves+1 {
		t.Errorf("after Leave: parked %v, leaves %d → %d", s.IsParked(3), leaves, s.Stats().Leaves)
	}
	rr, err := s.Repair(failure.LinkDown(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Readmitted) != 0 || s.Tree().IsMember(3) {
		t.Errorf("repair re-admitted a receiver that left: %v", rr.Readmitted)
	}
	if err := s.Leave(3); !errors.Is(err, ErrNotMember) {
		t.Errorf("second Leave = %v, want ErrNotMember", err)
	}
}

// TestRepairCountsParkOnce: a member a repair cannot reconnect stays parked
// and is not counted as parked again. (Regression: every Repair took it out
// of the parked set before re-trying its join, so the failed join's park
// counted a new one.)
func TestRepairCountsParkOnce(t *testing.T) {
	s, err := NewSession(lineGraph(t, 4), 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(failure.LinkDown(1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Parks; got != 1 {
		t.Fatalf("Parks after the cut = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		rr, err := s.Repair()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rr.StillParked, []graph.NodeID{3}) {
			t.Fatalf("repair %d: StillParked = %v, want [3]", i, rr.StillParked)
		}
		if got := s.Stats().Parks; got != 1 {
			t.Fatalf("repair %d: Parks = %d, want 1", i, got)
		}
	}
}

// TestRepairRefusesUnknownComponents: Repair refuses a node or link the
// graph lacks, or a failure of neither kind, as Recover does, and changes
// nothing; repairing a real component that never failed is a no-op.
func TestRepairRefusesUnknownComponents(t *testing.T) {
	s, err := NewSession(lineGraph(t, 4), 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(failure.LinkDown(1, 2)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fs   []failure.Failure
		want error
	}{
		{[]failure.Failure{failure.NodeDown(999)}, graph.ErrUnknownNode},
		{[]failure.Failure{failure.LinkDown(1, 2), failure.LinkDown(7, 900)}, graph.ErrUnknownNode},
		{[]failure.Failure{failure.LinkDown(0, 2)}, graph.ErrUnknownEdge},
		{[]failure.Failure{{}}, failure.ErrBadSchedule},
		{[]failure.Failure{failure.LinkDown(1, 2), {Kind: 99}}, failure.ErrBadSchedule},
	} {
		if rr, err := s.Repair(tc.fs...); !errors.Is(err, tc.want) {
			t.Errorf("Repair(%v) = %+v, %v; want %v", tc.fs, rr, err, tc.want)
		}
	}
	if !s.IsParked(3) || s.FailedMask().IsEmpty() {
		t.Fatalf("a refused repair changed the session: parked %v, mask empty %v", s.IsParked(3), s.FailedMask().IsEmpty())
	}
	rr, err := s.Repair(failure.LinkDown(2, 3))
	if err != nil {
		t.Fatalf("Repair(never-failed link) = %v", err)
	}
	if len(rr.Readmitted) != 0 || !slices.Equal(rr.StillParked, []graph.NodeID{3}) {
		t.Errorf("Repair(never-failed link): Readmitted %v, StillParked %v; want none, [3]", rr.Readmitted, rr.StillParked)
	}
}
