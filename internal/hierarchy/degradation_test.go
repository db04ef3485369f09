package hierarchy

import (
	"errors"
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestDomainDownRepairRevive drives the hierarchy through the degraded-domain
// state machine: failing a stub's agent (its gateway) suspends the whole
// domain, its members park as a group, and repairing the agent revives the
// domain and re-admits them automatically.
func TestDomainDownRepairRevive(t *testing.T) {
	ts, src, s := newTS(t, 3)
	members := pickMembers(ts, src, 8)
	for _, m := range members {
		if err := s.Join(m); err != nil {
			t.Fatalf("Join(%d) = %v", m, err)
		}
	}

	// Pick a member outside the source's domain; its stub's gateway is the
	// domain agent we will fail.
	srcDom := ts.DomainOf(src)
	var victim graph.NodeID = graph.Invalid
	for _, m := range members {
		if d := ts.DomainOf(m); d != srcDom && m != ts.Domains[d].Gateway {
			victim = m
			break
		}
	}
	if victim == graph.Invalid {
		t.Fatal("no member outside the source domain")
	}
	dom := &ts.Domains[ts.DomainOf(victim)]
	agent := dom.Gateway

	reports, err := s.RecoverSet([]failure.Failure{failure.NodeDown(agent)})
	if err != nil {
		t.Fatalf("RecoverSet(NodeDown agent) = %v", err)
	}
	var domainDown bool
	for _, r := range reports {
		if r.DomainID == dom.ID && r.DomainDown {
			domainDown = true
		}
	}
	if !domainDown {
		t.Fatalf("agent failure did not mark domain %d down; reports: %+v", dom.ID, reports)
	}
	// Every member of the down domain is degraded as a group.
	parked := s.Parked()
	for _, m := range members {
		if ts.DomainOf(m) == dom.ID {
			if !slices.Contains(parked, m) {
				t.Errorf("member %d of down domain %d not parked (parked = %v)", m, dom.ID, parked)
			}
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("degraded hierarchy invalid: %v", err)
	}

	// While the agent is down, further failures inside the domain must
	// accumulate silently (DomainDown again), not error out.
	reports, err = s.RecoverSet([]failure.Failure{failure.NodeDown(victim)})
	if err != nil {
		t.Fatalf("RecoverSet while domain down = %v", err)
	}
	for _, r := range reports {
		if r.DomainID == dom.ID && !r.DomainDown {
			t.Fatalf("domain %d should still be down: %+v", dom.ID, r)
		}
	}

	// Repair both: the agent revives the domain; the victim's own failure is
	// lifted with it, so every parked member of the domain is re-admitted.
	sum, err := s.Repair(failure.NodeDown(agent), failure.NodeDown(victim))
	if err != nil {
		t.Fatalf("Repair = %v", err)
	}
	if !slices.Contains(sum.Revived, dom.ID) {
		t.Fatalf("Revived = %v, want to contain %d", sum.Revived, dom.ID)
	}
	if len(sum.StillParked) != 0 {
		t.Fatalf("StillParked = %v, want empty", sum.StillParked)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("revived hierarchy invalid: %v", err)
	}
	for _, m := range members {
		if _, err := s.EndToEndDelay(m); err != nil {
			t.Errorf("EndToEndDelay(%d) after revival = %v", m, err)
		}
	}
}

// TestHierarchyErrorIdentity pins the typed sentinels of the hierarchy API,
// on the two-level view and on a generated 3-level topology alike.
func TestHierarchyErrorIdentity(t *testing.T) {
	ts, _, two := newTS(t, 4)
	nt, src := buildNLevel(t, 4)
	three, err := NewNLevel(nt, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		s        *NLevelSession
		receiver graph.NodeID
		nodes    int
	}{
		{"transit-stub", two, ts.Domains[2].Nodes[0], ts.Graph.NumNodes()},
		{"3-level", three, nt.Domains[nt.Leaves()[1]].Nodes[0], nt.Graph.NumNodes()},
	} {
		s, outside := tc.s, graph.NodeID(tc.nodes+5)
		if _, err := s.RecoverSet(nil); !errors.Is(err, failure.ErrBadSchedule) {
			t.Errorf("%s: RecoverSet(nil) = %v, want ErrBadSchedule", tc.name, err)
		}
		if _, err := s.RecoverSet([]failure.Failure{{Kind: failure.Kind(99)}}); !errors.Is(err, ErrFailureOutsideDomains) {
			t.Errorf("%s: RecoverSet(bad kind) = %v, want ErrFailureOutsideDomains", tc.name, err)
		}
		if _, err := s.Recover(failure.NodeDown(outside)); !errors.Is(err, ErrFailureOutsideDomains) {
			t.Errorf("%s: Recover(node in no domain) = %v, want ErrFailureOutsideDomains", tc.name, err)
		}
		if err := s.Join(outside); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("%s: Join(out of range) = %v, want ErrUnknownNode", tc.name, err)
		}
		if err := s.Leave(tc.receiver); !errors.Is(err, core.ErrNotMember) {
			t.Errorf("%s: Leave(non-member) = %v, want ErrNotMember", tc.name, err)
		}
		if _, err := s.EndToEndDelay(tc.receiver); !errors.Is(err, core.ErrNotMember) {
			t.Errorf("%s: EndToEndDelay(non-member) = %v, want ErrNotMember", tc.name, err)
		}
		if err := s.Join(tc.receiver); err != nil {
			t.Fatalf("%s: Join(%d) = %v", tc.name, tc.receiver, err)
		}
		if err := s.Join(tc.receiver); !errors.Is(err, core.ErrAlreadyMember) {
			t.Errorf("%s: re-Join = %v, want ErrAlreadyMember", tc.name, err)
		}
	}
}

// TestPartitionedJoinIsRecorded: a receiver whose domain session parks it on
// admission is a member in the degraded state, not a ghost. (Regression: Join
// returned before recording the membership, so Members and Parked missed the
// receiver, its agent never joined level 0, and after the repair the stub
// tree carried a member the hierarchy refused to Leave.)
func TestPartitionedJoinIsRecorded(t *testing.T) {
	ts, _, s := newTS(t, 4)
	stub := ts.Domains[2]
	n := stub.Nodes[0]
	if n == stub.Gateway {
		n = stub.Nodes[1]
	}
	cut := failure.SRLG(ts.Graph, n)
	if _, err := s.RecoverSet(cut); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(n); !errors.Is(err, core.ErrPartitioned) {
		t.Fatalf("Join(isolated) = %v, want ErrPartitioned", err)
	}
	if !slices.Contains(s.Members(), n) || !slices.Contains(s.Parked(), n) {
		t.Fatalf("isolated joiner: members %v, parked %v, want %d in both", s.Members(), s.Parked(), n)
	}
	top, topNM, _ := s.DomainSession(0)
	if agent, _ := topNM.ToSub(stub.Gateway); !top.Tree().IsMember(agent) {
		t.Error("the joiner's agent was not hooked into level 0")
	}
	sum, err := s.Repair(cut...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sum.Readmitted, []graph.NodeID{n}) || len(sum.StillParked) != 0 {
		t.Errorf("Repair: readmitted %v, still parked %v, want [%d] and none", sum.Readmitted, sum.StillParked, n)
	}
	if _, err := s.EndToEndDelay(n); err != nil {
		t.Errorf("EndToEndDelay after repair = %v", err)
	}
	if err := s.Leave(n); err != nil {
		t.Errorf("Leave after repair = %v", err)
	}
}

// TestLeaveWhileDomainDown: a receiver that leaves while its domain is
// suspended is gone for good — the repair that revives the domain must not
// re-admit it.
func TestLeaveWhileDomainDown(t *testing.T) {
	ts, _, s := newTS(t, 3)
	stub := ts.Domains[3]
	var stay, goes graph.NodeID = graph.Invalid, graph.Invalid
	for _, n := range stub.Nodes {
		if n == stub.Gateway {
			continue
		}
		if err := s.Join(n); err != nil {
			t.Fatal(err)
		}
		if stay, goes = goes, n; stay != graph.Invalid {
			break
		}
	}
	agent := failure.NodeDown(stub.Gateway)
	if _, err := s.RecoverSet([]failure.Failure{agent}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Parked(), s.Members()) {
		t.Fatalf("parked %v, want every member %v", s.Parked(), s.Members())
	}
	if err := s.Leave(goes); err != nil {
		t.Fatalf("Leave while domain down = %v", err)
	}
	sum, err := s.Repair(agent)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sum.Revived, []int{stub.ID}) || !slices.Equal(sum.Readmitted, []graph.NodeID{stay}) {
		t.Errorf("Repair: revived %v readmitted %v, want [%d] and [%d]", sum.Revived, sum.Readmitted, stub.ID, stay)
	}
	sess, nm, _ := s.DomainSession(stub.ID)
	if sub, _ := nm.ToSub(goes); sess.Tree().IsMember(sub) || sess.IsParked(sub) || slices.Contains(s.Members(), goes) {
		t.Errorf("receiver %d left while the domain was down, yet the repair re-admitted it", goes)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLeafGatewayCrashThreeLevel is the domain-down state machine below the
// first level: a leaf domain's agent crashes, the leaf suspends and its
// parent heals around the lost agent, the receivers below degrade as a
// group, and the repair revives the leaf and re-admits them.
func TestLeafGatewayCrashThreeLevel(t *testing.T) {
	nt, src := buildNLevel(t, 12)
	s, err := NewNLevel(nt, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	leaves := nt.Leaves()
	leaf := nt.Domains[leaves[len(leaves)-1]] // not the source's leaf
	var below []graph.NodeID
	for _, n := range leaf.Nodes {
		if n != leaf.Gateway && len(below) < 3 {
			below = append(below, n)
		}
	}
	elsewhere := nt.Domains[leaves[1]].Nodes[0]
	for _, m := range append(slices.Clone(below), elsewhere) {
		if err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(below)

	crash := failure.NodeDown(leaf.Gateway)
	reports, err := s.RecoverSet([]failure.Failure{crash})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].DomainID != leaf.ID || !reports[0].DomainDown || reports[0].Level != 2 ||
		reports[1].DomainID != leaf.Parent || reports[1].DomainDown || reports[1].Heal == nil {
		t.Fatalf("reports = %+v, want leaf %d down then parent %d healed", reports, leaf.ID, leaf.Parent)
	}
	if !slices.Equal(s.Parked(), below) {
		t.Fatalf("parked = %v, want the receivers below the crashed agent %v", s.Parked(), below)
	}
	// A receiver that joins the suspended domain waits with the others: the
	// parent already holds the crashed agent's place.
	for _, n := range leaf.Nodes {
		if n != leaf.Gateway && !slices.Contains(below, n) {
			if err := s.Join(n); !errors.Is(err, core.ErrPartitioned) {
				t.Fatalf("Join(%d) below the crashed agent = %v, want ErrPartitioned", n, err)
			}
			below = append(below, n)
			slices.Sort(below)
			break
		}
	}
	sum, err := s.Repair(crash)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sum.Revived, []int{leaf.ID}) || !slices.Equal(sum.Readmitted, below) || len(sum.StillParked) != 0 {
		t.Errorf("Repair = %+v, want revived [%d], readmitted %v, nobody parked", sum, leaf.ID, below)
	}
	for _, m := range s.Members() {
		if _, err := s.EndToEndDelay(m); err != nil {
			t.Errorf("EndToEndDelay(%d) after repair = %v", m, err)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinRefusedBehindCrashedAgent: a domain nobody had joined yet, whose
// agent is down, has no place in its parent's tree for a repair to restore —
// a joiner is refused outright and leaves no state behind.
func TestJoinRefusedBehindCrashedAgent(t *testing.T) {
	ts, _, s := newTS(t, 4)
	stub := ts.Domains[4]
	n := stub.Nodes[0]
	if n == stub.Gateway {
		n = stub.Nodes[1]
	}
	if _, err := s.Recover(failure.NodeDown(stub.Gateway)); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(n); !errors.Is(err, failure.ErrMemberFailed) {
		t.Fatalf("Join behind a crashed, never-hooked agent = %v, want ErrMemberFailed", err)
	}
	sess, nm, _ := s.DomainSession(stub.ID)
	if sub, _ := nm.ToSub(n); len(s.Members()) != 0 || sess.IsParked(sub) || sess.Tree().IsMember(sub) {
		t.Errorf("refused joiner left state behind: members %v, parked in stub %v", s.Members(), sess.Parked())
	}
}

// TestRecoverSetRefusesUnknownEdge: a batch naming a link no edge joins is
// refused whole before any domain heals. The batch's real link lies in a leaf
// domain, which heals first, and the absent one in the root domain, which
// heals last; every domain's mask must stay empty.
func TestRecoverSetRefusesUnknownEdge(t *testing.T) {
	nt, src := buildNLevel(t, 11)
	s, err := NewNLevel(nt, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := nt.Graph
	leaf := nt.Domains[nt.DomainOf(src)]
	cut := failure.Failure{}
	for _, a := range g.Neighbors(src) {
		if nt.DomainOf(a.To) == leaf.ID {
			cut = failure.LinkDown(src, a.To)
			break
		}
	}
	root := nt.Domains[0].Nodes
	absent := failure.Failure{}
	for _, v := range root[1:] {
		if !g.HasEdge(root[0], v) {
			absent = failure.LinkDown(root[0], v)
			break
		}
	}
	if cut.Kind == 0 || absent.Kind == 0 {
		t.Fatal("topology has no intra-leaf link at the source or no absent root link")
	}
	if _, err := s.RecoverSet([]failure.Failure{cut, absent}); !errors.Is(err, graph.ErrUnknownEdge) {
		t.Fatalf("RecoverSet(%v, %v) = %v, want ErrUnknownEdge", cut, absent, err)
	}
	for i, ds := range s.sessions {
		if !ds.session.FailedMask().IsEmpty() {
			t.Fatalf("domain %d healed part of a refused batch", i)
		}
	}
}

// TestRepairRefusesUnknownEdgeWhole: a repair naming a link no edge joins is
// refused before any domain lifts a failure. The batch's real link, a
// member's worst-case cut, lies in a leaf domain, which repairs first, and
// the absent one between two root-domain nodes, which repairs last; every
// domain's mask and the parked set must stay as the refused batch found them.
func TestRepairRefusesUnknownEdgeWhole(t *testing.T) {
	nt, err := topology.GenerateNLevel(topology.DefaultNLevelConfig(), topology.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	leaves := nt.Leaves()
	s, err := NewNLevel(nt, nt.Domains[leaves[0]].Nodes[1], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := nt.Domains[leaves[1]].Nodes[1]
	if err := s.Join(m); err != nil {
		t.Fatal(err)
	}
	cut, err := s.WorstCaseFor(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(cut); err != nil {
		t.Fatal(err)
	}
	g := nt.Graph
	root := nt.Domains[0].Nodes
	absent := failure.Failure{}
	for _, v := range root[1:] {
		if !g.HasEdge(root[0], v) {
			absent = failure.LinkDown(root[0], v)
			break
		}
	}
	if nt.DomainOf(cut.Edge.A) == 0 || nt.DomainOf(cut.Edge.B) == 0 || absent.Kind == 0 {
		t.Fatalf("want a cut outside the root domain and an absent root link; cut %v, absent %v", cut, absent)
	}
	masks := make([]uint64, len(s.sessions))
	for i, ds := range s.sessions {
		masks[i] = ds.session.FailedMask().Fingerprint()
	}
	parked := s.Parked()
	if _, err := s.Repair(cut, absent); !errors.Is(err, graph.ErrUnknownEdge) {
		t.Fatalf("Repair(%v, %v) = %v, want ErrUnknownEdge", cut, absent, err)
	}
	for i, ds := range s.sessions {
		if ds.session.FailedMask().Fingerprint() != masks[i] {
			t.Errorf("domain %d repaired part of a refused batch", i)
		}
	}
	if got := s.Parked(); !slices.Equal(got, parked) {
		t.Errorf("parked %v after a refused repair, %v before", got, parked)
	}
}
