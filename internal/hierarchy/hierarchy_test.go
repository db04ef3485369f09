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

// buildTS generates the default 4-transit/4-stub topology and returns it
// with a source placed inside the first stub domain.
func buildTS(t *testing.T, seed uint64) (*topology.NLevelTopology, graph.NodeID) {
	t.Helper()
	ts, err := topology.GenerateTransitStub(topology.DefaultTransitStubConfig(), topology.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	// Source: a non-gateway node of the first stub, domain 1.
	for _, n := range ts.Domains[1].Nodes {
		if n != ts.Domains[1].Gateway {
			return ts, n
		}
	}
	t.Fatal("no non-gateway node in domain 1")
	return nil, 0
}

// newTS builds the hierarchical session over buildTS's two-level topology.
func newTS(t *testing.T, seed uint64) (*topology.NLevelTopology, graph.NodeID, *NLevelSession) {
	t.Helper()
	ts, src := buildTS(t, seed)
	s, err := NewNLevel(ts, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ts, src, s
}

// pickMembers returns up to k non-gateway, non-source receivers spread over
// all stub domains.
func pickMembers(ts *topology.NLevelTopology, src graph.NodeID, k int) []graph.NodeID {
	var out []graph.NodeID
	for round := 0; len(out) < k && round < 16; round++ {
		for _, stub := range ts.Domains[1:] {
			if len(out) >= k {
				break
			}
			nodes := stub.Nodes
			if round < len(nodes) {
				n := nodes[round]
				if n != src && n != stub.Gateway {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	nt, _ := buildTS(t, 1)
	if _, err := NewNLevel(nt, graph.NodeID(nt.Graph.NumNodes()+1), core.DefaultConfig()); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("source in no domain = %v, want ErrUnknownNode", err)
	}
	// The source may live in any domain, the transit core included.
	if _, err := NewNLevel(nt, nt.Domains[0].Nodes[0], core.DefaultConfig()); err != nil {
		t.Errorf("source in the transit domain: %v", err)
	}
	bad := core.DefaultConfig()
	bad.DThresh = -1
	if _, err := NewNLevel(nt, nt.Domains[1].Nodes[0], bad); err == nil {
		t.Error("bad config should be rejected")
	}
}

func TestJoinAcrossDomains(t *testing.T) {
	ts, src, s := newTS(t, 2)
	members := pickMembers(ts, src, 8)
	for _, m := range members {
		if err := s.Join(m); err != nil {
			t.Fatalf("join %d: %v", m, err)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Members()); got != len(members) {
		t.Errorf("members = %d, want %d", got, len(members))
	}
	// Every member domain's agent sits on the level-0 tree.
	topSess, topNM, _ := s.DomainSession(0)
	for _, m := range members {
		d := ts.Domains[ts.DomainOf(m)]
		agentSub, ok := topNM.ToSub(d.Gateway)
		if !ok {
			t.Fatalf("agent of domain %d not in top session", d.ID)
		}
		if !topSess.Tree().OnTree(agentSub) {
			t.Errorf("agent of domain %d not on level-0 tree", d.ID)
		}
	}
	// Duplicate join rejected.
	if err := s.Join(members[0]); err == nil {
		t.Error("duplicate join should fail")
	}
	// End-to-end delay is positive and finite for every member.
	for _, m := range members {
		d, err := s.EndToEndDelay(m)
		if err != nil {
			t.Fatalf("delay %d: %v", m, err)
		}
		if d <= 0 {
			t.Errorf("member %d delay = %v", m, d)
		}
	}
}

func TestLeaveEmptiesDomain(t *testing.T) {
	ts, _, s := newTS(t, 3)
	// One member in a non-source domain.
	var m graph.NodeID = graph.Invalid
	for _, n := range ts.Domains[2].Nodes {
		if n != ts.Domains[2].Gateway {
			m = n
			break
		}
	}
	if m == graph.Invalid {
		t.Fatal("no candidate member")
	}
	if err := s.Join(m); err != nil {
		t.Fatal(err)
	}
	topSess, topNM, _ := s.DomainSession(0)
	agentSub, _ := topNM.ToSub(ts.Domains[2].Gateway)
	if !topSess.Tree().IsMember(agentSub) {
		t.Fatal("agent should be on top tree while domain has members")
	}
	if err := s.Leave(m); err != nil {
		t.Fatal(err)
	}
	// The agent chain stays in place: it expires by soft state, not by Leave.
	if !topSess.Tree().IsMember(agentSub) {
		t.Error("Leave withdrew the agent from the level-0 tree")
	}
	if err := s.Leave(m); err == nil {
		t.Error("double leave should fail")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDomainConfinedRecovery is the §3.3.3 claim: a failure inside one stub
// domain is recovered entirely within that domain; all other sub-trees are
// byte-for-byte untouched.
func TestDomainConfinedRecovery(t *testing.T) {
	ts, src, s := newTS(t, 4)
	members := pickMembers(ts, src, 8)
	for _, m := range members {
		if err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}

	// Find a victim member in a non-source stub and its worst-case link
	// inside that stub.
	var victim graph.NodeID = graph.Invalid
	var victimDomain int
	for _, m := range members {
		if d := ts.DomainOf(m); d != ts.DomainOf(src) {
			victim, victimDomain = m, d
			break
		}
	}
	if victim == graph.Invalid {
		t.Skip("no member outside the source domain in this draw")
	}
	sess, nm, err := s.DomainSession(victimDomain)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := nm.ToSub(victim)
	f, err := failure.WorstCaseFor(sess.Tree(), sub)
	if err != nil {
		t.Fatal(err)
	}
	fullA, _ := nm.ToFull(f.Edge.A)
	fullB, _ := nm.ToFull(f.Edge.B)

	// Snapshot all OTHER domains' trees, the level-0 core (domain 0) included.
	before := make(map[int][]graph.EdgeID)
	for id := 0; id < s.NumDomains(); id++ {
		if id == victimDomain {
			continue
		}
		o, _, err := s.DomainSession(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = o.Tree().Edges()
	}

	rep, err := s.Recover(failure.LinkDown(fullA, fullB))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DomainID != victimDomain || rep.Level != 1 {
		t.Errorf("recovery attributed to domain %d level %d, want %d level 1", rep.DomainID, rep.Level, victimDomain)
	}
	if rep.NodesInDomain >= ts.Graph.NumNodes() {
		t.Error("recovery scope should be a strict subset of the network")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// All other domains untouched.
	for id, edges := range before {
		o, _, err := s.DomainSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(o.Tree().Edges(), edges) {
			t.Errorf("domain %d changed during foreign recovery", id)
		}
	}
}

// TestCoreRecoveryLevel0 checks that transit-core failures are healed in the
// level-0 domain.
func TestCoreRecoveryLevel0(t *testing.T) {
	ts, src, s := newTS(t, 5)
	for _, m := range pickMembers(ts, src, 6) {
		if err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	// Fail a transit-core link that the level-0 tree actually uses.
	topSess, topNM, _ := s.DomainSession(0)
	edges := topSess.Tree().Edges()
	if len(edges) == 0 {
		t.Skip("level-0 tree has no edges in this draw")
	}
	a, _ := topNM.ToFull(edges[len(edges)-1].A)
	b, _ := topNM.ToFull(edges[len(edges)-1].B)
	rep, err := s.Recover(failure.LinkDown(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Level != 0 || rep.DomainID != 0 {
		t.Errorf("recovery level = %d domain %d, want level 0", rep.Level, rep.DomainID)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverNodeFailure(t *testing.T) {
	ts, _, s := newTS(t, 6)
	// A transit-node failure is attributed to the level-0 domain.
	rep, err := s.Recover(failure.NodeDown(ts.Domains[0].Nodes[len(ts.Domains[0].Nodes)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Level != 0 || rep.DomainID != 0 {
		t.Errorf("recovery level = %d domain %d, want level 0", rep.Level, rep.DomainID)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinErrors(t *testing.T) {
	ts, _, s := newTS(t, 7)
	// Receivers may live in any domain, the transit core included.
	if err := s.Join(ts.Domains[0].Nodes[0]); err != nil {
		t.Errorf("join of a transit node: %v", err)
	}
	if err := s.Join(graph.NodeID(ts.Graph.NumNodes() + 4)); err == nil {
		t.Error("unknown node should fail")
	}
	if err := s.Leave(ts.Domains[1].Nodes[0]); err == nil {
		t.Error("leave of non-member should fail")
	}
}
