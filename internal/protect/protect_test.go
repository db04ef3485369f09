package protect

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// biconnWaxman samples a connected Waxman graph and densifies it until it is
// biconnected (adds shortest chords around articulation points).
func biconnWaxman(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	rng := topology.NewRNG(seed)
	for tries := 0; tries < 50; tries++ {
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: n, Alpha: 0.6, Beta: 0.4, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.Biconnected(nil) {
			return g
		}
	}
	t.Skip("no biconnected sample drawn")
	return nil
}

// line builds 0—1—…—(n-1) with unit weights.
func line(t *testing.T, n int) *graph.Graph { return chain(t, n, n-1) }

// ring closes the line into a cycle.
func ring(t *testing.T, n int) *graph.Graph { return chain(t, n, n) }

// chain links node i to node (i+1) mod n at unit weight, for i below links.
func chain(t *testing.T, n, links int) *graph.Graph {
	t.Helper()
	b := graph.New(n)
	for i := 0; i < links; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Freeze()
}

func TestBuildRedundantTreesRing(t *testing.T) {
	g := ring(t, 6)
	rt, err := BuildRedundantTrees(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for m := 1; m < 6; m++ {
		if err := rt.Subscribe(graph.NodeID(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	// On a ring, the two trees are the two directions; combined cost covers
	// (almost) every edge.
	c, err := rt.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if c < 6 {
		t.Errorf("combined cost %v suspiciously low for a 6-ring", c)
	}
}

// TestRedundantTreesIgnoreRowOrder: the order a graph's edges were inserted
// in leaves no trace in its trees — a copy built with the edges in reverse
// gives the same st-numbering and the same red and blue edges — over
// biconnected Waxman samples of the protection study's shape.
func TestRedundantTreesIgnoreRowOrder(t *testing.T) {
	rng := topology.NewRNG(2005)
	for sample := 0; sample < 40; {
		g, err := topology.Waxman(topology.WaxmanConfig{N: 60, Alpha: 0.6, Beta: 0.4, EnsureConnected: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Biconnected(nil) {
			continue
		}
		sample++
		a, err := BuildRedundantTrees(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		reversed := graph.New(g.NumNodes())
		edges := g.Edges()
		for i := len(edges) - 1; i >= 0; i-- {
			w, _ := g.EdgeWeight(edges[i].A, edges[i].B)
			if err := reversed.AddEdge(edges[i].B, edges[i].A, w); err != nil {
				t.Fatal(err)
			}
		}
		b, err := BuildRedundantTrees(reversed.Freeze(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(a.Numbering, b.Numbering) {
			t.Fatalf("sample %d: st-numbering differs on the reversed copy", sample)
		}
		if !slices.Equal(a.Red.Edges(), b.Red.Edges()) || !slices.Equal(a.Blue.Edges(), b.Blue.Edges()) {
			t.Fatalf("sample %d: tree edges differ on the reversed copy", sample)
		}
	}
}

func TestRedundantTreesSurviveEverySingleFailure(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := biconnWaxman(t, 30, seed+100)
		rt, err := BuildRedundantTrees(g, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := topology.NewRNG(seed)
		for _, m := range rng.Sample(29, 8) {
			if err := rt.Subscribe(graph.NodeID(m + 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Every single-link failure leaves every member reachable by at
		// least one tree.
		for _, e := range g.Edges() {
			mask := failure.LinkDown(e.A, e.B).Mask()
			for _, m := range rt.Red.Members() {
				r := rt.Survives(mask, m)
				if !r.ViaRed && !r.ViaBlue {
					t.Fatalf("seed %d: member %d unprotected against %v", seed, m, e)
				}
			}
		}
		// Every single-node failure (excluding source and the member).
		for v := 1; v < g.NumNodes(); v++ {
			mask := failure.NodeDown(graph.NodeID(v)).Mask()
			for _, m := range rt.Red.Members() {
				if graph.NodeID(v) == m {
					continue
				}
				r := rt.Survives(mask, m)
				if !r.ViaRed && !r.ViaBlue {
					t.Fatalf("seed %d: member %d unprotected against node %d", seed, m, v)
				}
			}
		}
	}
}

func TestBuildRedundantTreesRejectsNonBiconnected(t *testing.T) {
	g := line(t, 5)
	if _, err := BuildRedundantTrees(g, 0); !errors.Is(err, graph.ErrNotBiconnected) {
		t.Errorf("err = %v", err)
	}
	if _, err := BuildRedundantTrees(g, 99); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestDependableSessionBasics(t *testing.T) {
	g := ring(t, 6)
	s, err := NewDependableSession(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := s.Join(3)
	if err != nil {
		t.Fatal(err)
	}
	if !conn.Disjoint {
		t.Error("ring offers fully disjoint backup")
	}
	// Primary and backup go opposite ways around the ring.
	if conn.Primary.Last() != 0 || conn.Backup.Last() != 0 {
		t.Error("paths must end at the source")
	}
	if _, err := s.Join(3); err == nil {
		t.Error("double join should fail")
	}
	if got := s.Members(); len(got) != 1 || got[0] != 3 {
		t.Errorf("members = %v", got)
	}
	if s.conns[3] == nil {
		t.Error("connection lookup failed")
	}
	cost, err := s.ReservedCost()
	if err != nil || cost != 6 {
		t.Errorf("reserved cost = %v (%v), want 6 (3 + 3 around the ring)", cost, err)
	}
	if err := s.Leave(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(3); err == nil {
		t.Error("double leave should fail")
	}
}

func TestDependableFailover(t *testing.T) {
	g := ring(t, 6)
	s, err := NewDependableSession(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := s.Join(2)
	if err != nil {
		t.Fatal(err)
	}

	// A failure missing both paths.
	out, err := s.Failover(graph.NewMask(), 2)
	if err != nil || out != PrimaryUnaffected {
		t.Errorf("outcome = %v, %v", out, err)
	}
	// Kill the primary's first hop.
	mask := failure.LinkDown(conn.Primary[0], conn.Primary[1]).Mask()
	out, err = s.Failover(mask, 2)
	if err != nil || out != SwitchedToBackup {
		t.Errorf("outcome = %v, %v", out, err)
	}
	// Kill one link of each direction: both channels down.
	both := failure.LinkDown(conn.Primary[0], conn.Primary[1]).Mask().
		Union(failure.LinkDown(conn.Backup[0], conn.Backup[1]).Mask())
	out, err = s.Failover(both, 2)
	if err != nil || out != BothChannelsDown {
		t.Errorf("outcome = %v, %v", out, err)
	}
	if _, err := s.Failover(mask, 5); err == nil {
		t.Error("failover of non-member should error")
	}
}

func TestDependableBackupOnBridgyGraph(t *testing.T) {
	// Line graph: no disjoint backup exists; the fallback reuses primary
	// links (Disjoint = false) rather than failing.
	g := line(t, 4)
	s, err := NewDependableSession(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := s.Join(3)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Disjoint {
		t.Error("line graph cannot offer a disjoint backup")
	}
	if conn.Backup == nil {
		t.Error("fallback backup missing")
	}
}

func TestFailoverOutcomeString(t *testing.T) {
	if PrimaryUnaffected.String() == "" || SwitchedToBackup.String() == "" ||
		BothChannelsDown.String() == "" || FailoverOutcome(0).String() == "" {
		t.Error("outcome strings must render")
	}
}

func TestDependableUnreachableMember(t *testing.T) {
	b := graph.New(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	s, err := NewDependableSession(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(2); err == nil {
		t.Error("unreachable member should fail")
	}
	if _, err := NewDependableSession(g, 9); err == nil {
		t.Error("bad source should fail")
	}
}

func TestPrunedCostBelowSpanningCost(t *testing.T) {
	g := ring(t, 8)
	rt, err := BuildRedundantTrees(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Subscribe(2); err != nil {
		t.Fatal(err)
	}
	full, err := rt.Cost()
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := rt.PrunedCost()
	if err != nil {
		t.Fatal(err)
	}
	if pruned >= full {
		t.Errorf("pruned cost %v should be below spanning cost %v", pruned, full)
	}
	// Pruning for accounting must not mutate the real trees.
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Red.NumNodes(); got != 8 {
		t.Errorf("red tree mutated: %d nodes", got)
	}
}
