package hierarchy

import (
	"testing"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// buildNLevel generates the default 3-level topology and picks a source in
// the first leaf domain.
func buildNLevel(t *testing.T, seed uint64) (*topology.NLevelTopology, graph.NodeID) {
	t.Helper()
	nt, err := topology.GenerateNLevel(topology.DefaultNLevelConfig(), topology.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	leaves := nt.Leaves()
	if len(leaves) == 0 {
		t.Fatal("no leaf domains")
	}
	leaf := nt.Domains[leaves[0]]
	for _, n := range leaf.Nodes {
		if n != leaf.Gateway {
			return nt, n
		}
	}
	t.Fatal("no non-gateway node")
	return nil, 0
}

func TestGenerateNLevelShape(t *testing.T) {
	cfg := topology.DefaultNLevelConfig()
	nt, err := topology.GenerateNLevel(cfg, topology.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	wantDomains := 1 + cfg.Fanout + cfg.Fanout*cfg.Fanout
	if len(nt.Domains) != wantDomains {
		t.Fatalf("domains = %d, want %d", len(nt.Domains), wantDomains)
	}
	if nt.Graph.NumNodes() != wantDomains*cfg.NodesPerDomain {
		t.Errorf("nodes = %d", nt.Graph.NumNodes())
	}
	if !nt.Graph.Connected(nil) {
		t.Error("hierarchy must be connected")
	}
	// Parent/child wiring and levels.
	for _, d := range nt.Domains {
		if d.Parent == -1 {
			if d.Level != 0 || d.ID != 0 {
				t.Errorf("root domain mis-wired: %+v", d)
			}
			continue
		}
		p := nt.Domains[d.Parent]
		if p.Level != d.Level-1 {
			t.Errorf("domain %d level %d under parent level %d", d.ID, d.Level, p.Level)
		}
		if !nt.Graph.HasEdge(d.Gateway, d.Attach) {
			t.Errorf("domain %d uplink missing", d.ID)
		}
		if nt.DomainOf(d.Attach) != p.ID {
			t.Errorf("attach of %d not owned by parent", d.ID)
		}
	}
	// Every node is owned by exactly one domain.
	seen := map[graph.NodeID]bool{}
	for _, d := range nt.Domains {
		for _, n := range d.Nodes {
			if seen[n] {
				t.Fatalf("node %d in two domains", n)
			}
			seen[n] = true
		}
	}
	if len(nt.Leaves()) != cfg.Fanout*cfg.Fanout {
		t.Errorf("leaves = %d", len(nt.Leaves()))
	}
	if nt.DomainOf(graph.NodeID(nt.Graph.NumNodes()+1)) != -1 {
		t.Error("unknown node should map to -1")
	}
}

func TestGenerateNLevelValidation(t *testing.T) {
	bad := topology.DefaultNLevelConfig()
	bad.Levels = 1
	if _, err := topology.GenerateNLevel(bad, topology.NewRNG(1)); err == nil {
		t.Error("Levels=1 should fail")
	}
	bad2 := topology.DefaultNLevelConfig()
	bad2.Shrink = 1.5
	if _, err := topology.GenerateNLevel(bad2, topology.NewRNG(1)); err == nil {
		t.Error("Shrink >= 1 should fail")
	}
}

func TestNLevelSessionJoinsAcrossLevels(t *testing.T) {
	nt, src := buildNLevel(t, 11)
	s, err := NewNLevel(nt, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One member from every domain (including the root/core domain).
	var members []graph.NodeID
	for _, d := range nt.Domains {
		for _, n := range d.Nodes {
			if n != d.Gateway && n != src {
				members = append(members, n)
				break
			}
		}
	}
	for _, m := range members {
		if err := s.Join(m); err != nil {
			t.Fatalf("join %d: %v", m, err)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Members()) != len(members) {
		t.Errorf("members = %d, want %d", len(s.Members()), len(members))
	}
	for _, m := range members {
		d, err := s.EndToEndDelay(m)
		if err != nil {
			t.Fatalf("delay %d: %v", m, err)
		}
		if d <= 0 {
			t.Errorf("member %d delay %v", m, d)
		}
	}
	if err := s.Join(members[0]); err == nil {
		t.Error("duplicate join should fail")
	}
	if err := s.Join(graph.NodeID(nt.Graph.NumNodes() + 7)); err == nil {
		t.Error("unknown node should fail")
	}
}

func TestNLevelDomainConfinedRecovery(t *testing.T) {
	nt, src := buildNLevel(t, 12)
	s, err := NewNLevel(nt, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Members in two different leaf domains far from the source.
	leaves := nt.Leaves()
	var victim graph.NodeID = graph.Invalid
	var victimDomain int
	joined := 0
	for _, li := range leaves {
		d := nt.Domains[li]
		if nt.DomainOf(src) == li {
			continue
		}
		for _, n := range d.Nodes {
			if n != d.Gateway {
				if err := s.Join(n); err != nil {
					t.Fatal(err)
				}
				joined++
				if victim == graph.Invalid {
					victim, victimDomain = n, li
				}
				break
			}
		}
	}
	if joined < 2 || victim == graph.Invalid {
		t.Skip("not enough leaf members in this draw")
	}
	// Worst-case link inside the victim's domain session.
	sess, nm, err := s.DomainSession(victimDomain)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := nm.ToSub(victim)
	fSub, err := failure.WorstCaseFor(sess.Tree(), sub)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := nm.ToFull(fSub.Edge.A)
	b, _ := nm.ToFull(fSub.Edge.B)

	// Snapshot all other domain trees.
	type snap []graph.EdgeID
	before := map[int]snap{}
	for i := range nt.Domains {
		if i == victimDomain {
			continue
		}
		o, _, err := s.DomainSession(i)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = o.Tree().Edges()
	}

	rep, err := s.Recover(failure.LinkDown(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DomainID != victimDomain {
		// The worst-case link may be the domain's uplink handled by the
		// parent — also legitimate confinement.
		if nt.Domains[victimDomain].Parent != rep.DomainID {
			t.Errorf("recovery in domain %d, expected %d or its parent", rep.DomainID, victimDomain)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, sn := range before {
		if i == rep.DomainID {
			continue
		}
		o, _, err := s.DomainSession(i)
		if err != nil {
			t.Fatal(err)
		}
		after := o.Tree().Edges()
		if len(after) != len(sn) {
			t.Errorf("domain %d changed during foreign recovery", i)
			continue
		}
		for k := range after {
			if after[k] != sn[k] {
				t.Errorf("domain %d edge %d changed", i, k)
			}
		}
	}
}

func TestNLevelLeave(t *testing.T) {
	nt, src := buildNLevel(t, 13)
	s, err := NewNLevel(nt, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	leaf := nt.Domains[nt.Leaves()[len(nt.Leaves())-1]]
	var m graph.NodeID = graph.Invalid
	for _, n := range leaf.Nodes {
		if n != leaf.Gateway && n != src {
			m = n
			break
		}
	}
	if m == graph.Invalid {
		t.Skip("no candidate member")
	}
	if err := s.Join(m); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(m); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(m); err == nil {
		t.Error("double leave should fail")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
