package detour

import (
	"reflect"
	"testing"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestRecoverPaperFig1 plays the paper's Figure-1 example against the
// precomputed-detour baseline and checks its defining property: recovery is
// a pure table lookup — zero recovery-time settled nodes, zero fallbacks.
// With members {C, D} on the SPF tree S→A→{C, D}, failing node A leaves only
// S alive on the tree, so C's precomputed parent-detour (computed at join
// time, avoiding A, targeting outside A's subtree) is C→D→B→S at distance 6;
// D then reattaches in place as a relay of C's graft.
func TestRecoverPaperFig1(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	st := New()
	cfg := core.DefaultConfig()
	cfg.DThresh = 0 // SPF tree: S→A→C, S→A→D
	cfg.Strategy = st
	s, err := core.NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	// One entry per on-tree non-source node: A (negative — its parent is the
	// source, and no survivor exists outside the source's subtree), C, D.
	if len(st.table) != 3 {
		t.Fatalf("table size = %d, want 3", len(st.table))
	}
	if e := st.table[1]; e.path != nil {
		t.Errorf("source child A should hold a negative entry, got path %v", e.path)
	}
	if want := (graph.Path{4, 2, 0}); !reflect.DeepEqual(st.table[4].path, want) {
		t.Errorf("D's precomputed detour = %v, want %v", st.table[4].path, want)
	}

	rep, err := s.Recover(failure.NodeDown(1))
	if err != nil {
		t.Fatal(err)
	}
	// C along its precomputed C→D→B→S at RD 6; D in place on C's graft.
	want := []core.Recovery{{Member: 3, Detour: graph.Path{3, 4, 2, 0}, RD: 6}, {Member: 4, Detour: graph.Path{4}, RD: 0}}
	if !reflect.DeepEqual(rep.Recovered, want) {
		t.Errorf("recovered = %+v, want %+v", rep.Recovered, want)
	}
	stats := s.Stats()
	if stats.StrategyFallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0 (pure table recovery)", stats.StrategyFallbacks)
	}
	if stats.HealSettled != 0 {
		t.Errorf("recovery settled %d nodes, want 0 (no live search)", stats.HealSettled)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Errorf("tree invalid after recovery: %v", err)
	}
	// The post-recovery notification rebuilt the table for the regrafted
	// tree (S→B→D→C): parents changed, entries follow.
	if len(st.table) != 3 {
		t.Errorf("table size after recovery = %d, want 3", len(st.table))
	}
	if e := st.table[3]; e.parent != 4 {
		t.Errorf("C's entry parent = %d, want 4 after regraft", e.parent)
	}
}

// TestTableMaintenance checks the epoch-memoized refresh: joins grow the
// table, leaves shrink it, and a quiet tree leaves it untouched.
func TestTableMaintenance(t *testing.T) {
	rng := topology.NewRNG(99)
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: 30, Alpha: 0.2, Beta: 0.35, EnsureConnected: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := New()
	cfg := core.DefaultConfig()
	cfg.Strategy = st
	s, err := core.NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	covered := func() int {
		n := 0
		for _, v := range s.Tree().Nodes() {
			if v != s.Tree().Source() {
				n++
			}
		}
		return n
	}
	var members []graph.NodeID
	for _, id := range rng.Sample(g.NumNodes(), 9) {
		if graph.NodeID(id) == 0 {
			continue
		}
		m := graph.NodeID(id)
		if _, err := s.Join(m); err != nil {
			t.Fatalf("join %d: %v", m, err)
		}
		members = append(members, m)
		if len(st.table) != covered() {
			t.Fatalf("after join %d: table size %d, want %d (every on-tree non-source node)",
				m, len(st.table), covered())
		}
	}
	settled := st.PrecomputeSettled()
	if settled <= 0 {
		t.Fatalf("PrecomputeSettled = %d, want > 0", settled)
	}
	if st.StateBytes() <= 0 {
		t.Fatalf("StateBytes = %d, want > 0", st.StateBytes())
	}
	// A no-op notification (same epoch) must not redo any work.
	if err := st.Precompute(s); err != nil {
		t.Fatal(err)
	}
	if st.PrecomputeSettled() != settled {
		t.Errorf("quiet refresh settled nodes: %d -> %d", settled, st.PrecomputeSettled())
	}
	for _, m := range members {
		if err := s.Leave(m); err != nil {
			t.Fatalf("leave %d: %v", m, err)
		}
		if len(st.table) != covered() {
			t.Fatalf("after leave %d: table size %d, want %d", m, len(st.table), covered())
		}
	}
}
