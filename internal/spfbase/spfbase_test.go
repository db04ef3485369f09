package spfbase

import (
	"errors"
	"math"
	"slices"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// heal recovers s from f the way the baseline does: Fail, then every
// recoverable member rejoins along its new shortest path, ascending, and the
// relays no member uses any more are pruned.
func heal(s *Session, f failure.Failure) (*HealReport, error) {
	rep, err := s.Fail(f)
	if err != nil {
		return nil, err
	}
	for _, m := range rep.Disconnected {
		if _, ok := rep.RecoveryDistance[m]; ok {
			if err := s.Join(m); err != nil {
				return nil, err
			}
		}
	}
	s.Tree().PruneStale()
	return rep, nil
}

func fig1Session(t *testing.T) *Session {
	t.Helper()
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionRejectsBadSource(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(g, 42); err == nil {
		t.Error("expected error for source outside graph")
	}
}

func TestJoinFollowsSPF(t *testing.T) {
	s := fig1Session(t)
	// C (3) and D (4) both route via A (1) on shortest paths.
	for _, m := range []graph.NodeID{3, 4} {
		if err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	pC, _ := s.Tree().PathToSource(3)
	pD, _ := s.Tree().PathToSource(4)
	if pC.String() != "3→1→0" || pD.String() != "4→1→0" {
		t.Errorf("paths C=%v D=%v, want via A", pC, pD)
	}
	// Per-member delay equals the unicast SPF delay — the defining property
	// of the baseline.
	spt := s.Tree().Graph().Dijkstra(0, nil)
	for _, m := range s.Tree().Members() {
		d, err := s.Tree().DelayTo(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d-spt.Dist[m]) > 1e-9 {
			t.Errorf("member %d delay %v != SPF %v", m, d, spt.Dist[m])
		}
	}
}

func TestJoinErrors(t *testing.T) {
	s := fig1Session(t)
	if err := s.Join(99); err == nil {
		t.Error("unknown node should fail")
	}
	if err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(3); !errors.Is(err, ErrAlreadyMember) {
		t.Errorf("duplicate join err = %v", err)
	}
	// On-tree relay joins in place.
	if err := s.Join(1); err != nil {
		t.Fatal(err)
	}
	if !s.Tree().IsMember(1) {
		t.Error("relay should have become member in place")
	}
}

func TestJoinUnreachable(t *testing.T) {
	b := graph.New(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	s, err := NewSession(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Join(2); !errors.Is(err, ErrNoPath) {
		t.Errorf("unreachable join err = %v", err)
	}
}

func TestLeave(t *testing.T) {
	s := fig1Session(t)
	for _, m := range []graph.NodeID{3, 4} {
		if err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Leave(3); err != nil {
		t.Fatal(err)
	}
	if s.Tree().OnTree(3) {
		t.Error("left member should be pruned")
	}
	if !s.Tree().OnTree(1) {
		t.Error("shared relay must remain for D")
	}
}

// TestHealGlobalDetour replays the paper's Figure 1(b): after L_AD fails,
// the SPF baseline reconnects D along D→B→S with all-new links (RD 4).
func TestHealGlobalDetour(t *testing.T) {
	s := fig1Session(t)
	for _, m := range []graph.NodeID{3, 4} {
		if err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := heal(s, failure.LinkDown(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Disconnected) != 1 || rep.Disconnected[0] != 4 {
		t.Fatalf("disconnected = %v", rep.Disconnected)
	}
	if rd := rep.RecoveryDistance[4]; rd != 4 {
		t.Errorf("RD = %v, want 4 (D→B→S, both links new)", rd)
	}
	if rep.NewPaths[4].String() != "4→2→0" {
		t.Errorf("new path = %v, want D→B→S", rep.NewPaths[4])
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(s.Tree().Edges(), graph.MakeEdgeID(1, 4)) {
		t.Error("healed tree uses failed link")
	}
	if p, _ := s.Tree().Parent(4); p != 2 {
		t.Errorf("D's parent = %d, want B", p)
	}
}

func TestHealSourceFailure(t *testing.T) {
	s := fig1Session(t)
	if err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	if _, err := heal(s, failure.NodeDown(0)); !errors.Is(err, failure.ErrSourceFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestHealUnrecoverable(t *testing.T) {
	b := graph.New(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	s, err := NewSession(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Join(2); err != nil {
		t.Fatal(err)
	}
	rep, err := heal(s, failure.LinkDown(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrecovered) != 1 || rep.Unrecovered[0] != 2 {
		t.Errorf("unrecovered = %v", rep.Unrecovered)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHealRandom checks global-detour healing invariants across random
// scenarios: valid trees, no failed component in use, members preserved, and
// every member back on its post-reconvergence shortest path.
func TestHealRandom(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := topology.NewRNG(seed + 500)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 70, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		members := rng.Sample(69, 12)
		for _, m := range members {
			if err := s.Join(graph.NodeID(m + 1)); err != nil {
				t.Fatal(err)
			}
		}
		victim := graph.NodeID(members[3] + 1)
		f, err := failure.WorstCaseFor(s.Tree(), victim)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Tree().NumMembers()
		rep, err := heal(s, f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Tree().Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if slices.Contains(s.Tree().Edges(), f.Edge) {
			t.Errorf("seed %d: tree uses failed link", seed)
		}
		if got := s.Tree().NumMembers() + len(rep.Unrecovered); got != before {
			t.Errorf("seed %d: member accounting broken", seed)
		}
		// Every recovered member sits on its reconverged shortest path.
		mask := f.Mask()
		spt := g.Dijkstra(0, mask)
		for m := range rep.RecoveryDistance {
			d, err := s.Tree().DelayTo(m)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if math.Abs(d-spt.Dist[m]) > 1e-9 {
				t.Errorf("seed %d: member %d post-heal delay %v != reconverged SPF %v",
					seed, m, d, spt.Dist[m])
			}
		}
	}
}

// TestFlushDeadDirect: Fail flushes the dead state at once and leaves the
// rejoins to the caller.
func TestFlushDeadDirect(t *testing.T) {
	s := fig1Session(t)
	for _, m := range []graph.NodeID{3, 4} {
		if err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	// L_SA failure kills both branches.
	rep, err := s.Fail(failure.LinkDown(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Disconnected) != 2 || len(rep.RecoveryDistance) != 2 {
		t.Errorf("disconnected = %v, RDs = %v", rep.Disconnected, rep.RecoveryDistance)
	}
	if s.Tree().NumMembers() != 0 || s.Tree().NumNodes() != 1 {
		t.Errorf("dead state not flushed: %v", s.Tree().Nodes())
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	// Source failure is unrecoverable, and refused before it accumulates.
	if _, err := s.Fail(failure.NodeDown(0)); !errors.Is(err, failure.ErrSourceFailed) {
		t.Errorf("err = %v", err)
	}
	if err := s.Join(3); err != nil {
		t.Fatalf("join after a refused source failure: %v", err)
	}
	// Failures accumulate: C's rejoin after L_CD goes around L_SA too.
	rep, err = s.Fail(failure.LinkDown(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Disconnected) != 1 || rep.Disconnected[0] != 3 {
		t.Errorf("disconnected = %v, want [3]", rep.Disconnected)
	}
	if err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Tree().PathToSource(3); p.String() != "3→1→4→2→0" {
		t.Errorf("C rejoined along %v, want C→A→D→B→S", p)
	}
	if _, err := s.Fail(failure.LinkDown(0, 99)); !errors.Is(err, graph.ErrUnknownNode) {
		t.Errorf("unknown node err = %v", err)
	}
}
