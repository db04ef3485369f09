package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// Node IDs in the Figure 4 fixture.
const (
	f4S = graph.NodeID(0)
	f4A = graph.NodeID(1)
	f4B = graph.NodeID(2)
	f4D = graph.NodeID(3)
	f4E = graph.NodeID(4)
	f4G = graph.NodeID(5)
	f4F = graph.NodeID(6)
	f4C = graph.NodeID(7)
)

func fig4Session(t *testing.T, cfg Config) *Session {
	t.Helper()
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, f4S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionValidation(t *testing.T) {
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(g, 0, Config{DThresh: -1, Knowledge: FullTopology}); err == nil {
		t.Error("negative DThresh should fail validation")
	}
	if _, err := NewSession(g, 0, Config{DThresh: 0.3}); err == nil {
		t.Error("zero-value Knowledge should fail validation")
	}
	if _, err := NewSession(g, 99, DefaultConfig()); err == nil {
		t.Error("source outside graph should fail")
	}
}

func TestConfigValidate(t *testing.T) {
	with := func(edit func(*Config)) Config {
		c := DefaultConfig()
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"DThresh 0 (pure SPF)", with(func(c *Config) { c.DThresh = 0 }), true},
		{"DThresh +Inf (no bound)", with(func(c *Config) { c.DThresh = math.Inf(1) }), true},
		{"DThresh negative", with(func(c *Config) { c.DThresh = -1 }), false},
		{"DThresh -Inf", with(func(c *Config) { c.DThresh = math.Inf(-1) }), false},
		{"DThresh NaN", with(func(c *Config) { c.DThresh = math.NaN() }), false},
		{"query scheme, sparse", with(func(c *Config) {
			c.Knowledge, c.TreeStorage = QueryScheme, StorageSparse
		}), true},
		{"Knowledge unset", with(func(c *Config) { c.Knowledge = 0 }), false},
		{"Knowledge out of range", with(func(c *Config) { c.Knowledge = QueryScheme + 1 }), false},
		{"TreeStorage out of range", with(func(c *Config) { c.TreeStorage = StorageSparse + 1 }), false},
		{"zero value", Config{}, false},
	} {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: %v, want valid", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

func TestConfigStringers(t *testing.T) {
	if FullTopology.String() != "full-topology" || QueryScheme.String() != "query-scheme" {
		t.Error("Knowledge String mismatch")
	}
	if Knowledge(0).String() == "" {
		t.Error("unknown enum values should still render")
	}
}

// TestPaperFigure4Sequence replays the paper's worked example (§3.2.2,
// Figure 4, and the Figure 5 reshaping) and checks every narrated decision:
//
//  1. E joins via the shortest path S→A→D→E; SHR(S,D) becomes 2.
//  2. G prefers G→B→S (merger S, SHR 0) over the shorter G→F→D→A→S.
//  3. F's S-merging options exceed (1+0.3)·SPF, so F joins via D;
//     SHR(S,D) rises from 2 to 4.
//  4. Condition I fires at E, which reshapes to E→C→A→S (merger A).
func TestPaperFigure4Sequence(t *testing.T) {
	s := fig4Session(t, DefaultConfig())

	// Step 1: E joins.
	resE, err := s.Join(f4E)
	if err != nil {
		t.Fatalf("join E: %v", err)
	}
	if resE.Merger != f4S {
		t.Errorf("E merger = %d, want S", resE.Merger)
	}
	if resE.Connection.String() != "0→1→3→4" {
		t.Errorf("E path = %v, want S→A→D→E", resE.Connection)
	}
	if shr, _ := s.SHR(f4D); shr != 2 {
		t.Errorf("SHR(S,D) after E = %d, want 2", shr)
	}

	// Step 2: G joins, preferring the less-shared longer path.
	resG, err := s.Join(f4G)
	if err != nil {
		t.Fatalf("join G: %v", err)
	}
	if resG.Merger != f4S {
		t.Errorf("G merger = %d, want S", resG.Merger)
	}
	if resG.Connection.String() != "0→2→5" {
		t.Errorf("G path = %v, want S→B→G", resG.Connection)
	}
	if resG.MergerSHR != 0 {
		t.Errorf("G merger SHR = %d, want 0", resG.MergerSHR)
	}
	if !resG.WithinBound {
		t.Error("G's path should satisfy the D_thresh bound")
	}
	// Sanity: a strictly shorter path existed.
	if resG.Delay <= resG.SPFDelay {
		t.Errorf("G delay %v should exceed SPF %v (traded for disjointness)", resG.Delay, resG.SPFDelay)
	}

	// Step 3: F joins via D because the disjoint options exceed the bound.
	resF, err := s.Join(f4F)
	if err != nil {
		t.Fatalf("join F: %v", err)
	}
	if resF.Merger != f4D {
		t.Errorf("F merger = %d, want D", resF.Merger)
	}
	if resF.Connection.String() != "3→6" {
		t.Errorf("F path = %v, want D→F", resF.Connection)
	}

	// Step 4: Condition I reshaped E onto the C branch (Figure 5).
	if len(resF.Reshaped) != 1 || resF.Reshaped[0] != f4E {
		t.Fatalf("reshaped = %v, want [E]", resF.Reshaped)
	}
	if p, _ := s.Tree().Parent(f4E); p != f4C {
		t.Errorf("E's parent after reshape = %d, want C", p)
	}
	pathE, err := s.Tree().PathToSource(f4E)
	if err != nil || pathE.String() != "4→7→1→0" {
		t.Errorf("E path after reshape = %v (%v), want E→C→A→S", pathE, err)
	}

	// Final SHR values on the reshaped tree.
	wantSHR := map[graph.NodeID]int{f4S: 0, f4A: 2, f4D: 3, f4F: 4, f4C: 3, f4E: 4, f4B: 1, f4G: 2}
	for n, want := range wantSHR {
		got, err := s.SHR(n)
		if err != nil {
			t.Fatalf("SHR(%d): %v", n, err)
		}
		if got != want {
			t.Errorf("SHR(S,%d) = %d, want %d", n, got, want)
		}
	}
	if err := s.Tree().Validate(); err != nil {
		t.Errorf("tree invariant: %v", err)
	}
	st := s.Stats()
	if st.Joins != 3 || st.Reshapes != 1 {
		t.Errorf("stats = %+v, want 3 joins / 1 reshape", st)
	}
}

// TestReshapeRefusedThroughDepartingRelay pins a known defect: the reshape
// selection reads the tree as if m's departing relay chain had left, so it can
// pick a path through one of those relays, which Tree.Reroute, reading the
// live tree, refuses. Member M hangs off relay R below member X, and R is M's
// only neighbour. Members A and B join below X, SHR(S,R) grows by 2 and
// Condition I fires for M. Without M, X's SHR is 3 and Y's is 1, so the
// selection picks Y→R→M, and R is still on the tree. The refusal is counted
// and the tree stays as the joins built it.
func TestReshapeRefusedThroughDepartingRelay(t *testing.T) {
	const (
		S, X, Y, R, M, A, B = 0, 1, 2, 3, 4, 5, 6
	)
	b := graph.New(7)
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{{S, X, 1}, {S, Y, 1}, {X, R, 1}, {Y, R, 1.5}, {R, M, 1}, {X, A, 1}, {X, B, 1}} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, S, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []graph.NodeID{X, Y, M, A, B} {
		if _, err := s.Join(n); err != nil {
			t.Fatalf("join %d: %v", n, err)
		}
	}
	parents := func() []graph.NodeID {
		out := make([]graph.NodeID, g.NumNodes())
		for n := range out {
			out[n], _ = s.Tree().Parent(graph.NodeID(n))
		}
		return out
	}
	want := []graph.NodeID{graph.Invalid, S, S, X, R, X, X}
	if got := parents(); !slices.Equal(got, want) {
		t.Fatalf("parents after the joins = %v, want %v", got, want)
	}
	st := s.Stats()
	if st.ReshapeChecks == 0 || st.ReshapesRefused == 0 || st.Reshapes != 0 {
		t.Fatalf("stats = %+v, want a Condition-I check whose reshape was refused", st)
	}
	// Condition II asks again, and is refused again.
	if moved := s.ReshapeAll(); len(moved) != 0 {
		t.Fatalf("ReshapeAll moved %v", moved)
	}
	if got := parents(); !slices.Equal(got, want) {
		t.Fatalf("parents after ReshapeAll = %v, want %v", got, want)
	}
	if again := s.Stats().ReshapesRefused; again <= st.ReshapesRefused {
		t.Fatalf("ReshapeAll refused %d reshapes, want more than the %d before", again-st.ReshapesRefused, st.ReshapesRefused)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFigure2DisjointPaths replays the Figure 1/2 contrast: with a generous
// D_thresh SMRP builds disjoint paths for C and D, so the worst-case failure
// L_SA disconnects only one of them.
func TestFigure2DisjointPaths(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DThresh = 1.0
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// C = 3, D = 4 in the fixture.
	if _, err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	resD, err := s.Join(4)
	if err != nil {
		t.Fatal(err)
	}
	if resD.Merger != 0 {
		t.Errorf("D merger = %d, want S (disjoint path)", resD.Merger)
	}
	pD, _ := s.Tree().PathToSource(4)
	if pD.String() != "4→2→0" {
		t.Errorf("D path = %v, want D→B→S", pD)
	}
	pC, _ := s.Tree().PathToSource(3)
	if pC.String() != "3→1→0" {
		t.Errorf("C path = %v, want C→A→S", pC)
	}
}

func TestTightBoundDegradesToSPF(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DThresh = 0 // no slack: every join must take its shortest path
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		res, err := s.Join(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Delay-res.SPFDelay) > 1e-9 {
			t.Errorf("member %d delay %v != SPF %v under DThresh=0", m, res.Delay, res.SPFDelay)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	if _, err := s.Join(99); err == nil {
		t.Error("join of unknown node should fail")
	}
	if _, err := s.Join(f4E); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(f4E); !errors.Is(err, ErrAlreadyMember) {
		t.Errorf("duplicate join err = %v", err)
	}
}

func TestJoinDisconnectedNode(t *testing.T) {
	b := graph.New(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(2); !errors.Is(err, ErrNoPath) {
		t.Errorf("join of unreachable node err = %v", err)
	}
}

func TestJoinOnTreeRelayBecomesMember(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	if _, err := s.Join(f4E); err != nil {
		t.Fatal(err)
	}
	// A (1) is now a relay on E's path; it can become a member in place.
	res, err := s.Join(f4A)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merger != f4A || len(res.Connection) != 1 {
		t.Errorf("in-place join = %+v", res)
	}
	if !s.Tree().IsMember(f4A) {
		t.Error("A should be a member")
	}
}

func TestSourceCanJoinAsMember(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	res, err := s.Join(f4S)
	if err != nil {
		t.Fatalf("source join: %v", err)
	}
	if res.Merger != f4S || res.Delay != 0 {
		t.Errorf("source join result = %+v", res)
	}
}

func TestLeave(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	for _, m := range []graph.NodeID{f4E, f4G, f4F} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Leave(f4G); err != nil {
		t.Fatal(err)
	}
	if s.Tree().OnTree(f4G) || s.Tree().OnTree(f4B) {
		t.Error("G's exclusive branch should be pruned")
	}
	if err := s.Leave(f4G); err == nil {
		t.Error("double leave should fail")
	}
	if err := s.Tree().Validate(); err != nil {
		t.Error(err)
	}
	if s.Stats().Leaves != 1 {
		t.Errorf("Leaves = %d", s.Stats().Leaves)
	}
}

func TestSHRAccessors(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	if _, err := s.SHR(f4E); err == nil {
		t.Error("SHR of off-tree node should error")
	}
	if _, err := s.Join(f4E); err != nil {
		t.Fatal(err)
	}
	snap := s.SHRSnapshot()
	if snap[f4S] != 0 || snap[f4E] != 3 {
		t.Errorf("snapshot = %v", snap)
	}
	// Mutating the returned snapshot must not affect the session.
	snap[f4S] = 99
	if v, _ := s.SHR(f4S); v != 0 {
		t.Error("snapshot mutation leaked into session")
	}
}

// TestSHRRecurrenceInvariant property-checks Eq. (2) of the paper on random
// sessions: SHR(S,R) == SHR(S,R_u) + N_R for every on-tree node.
func TestSHRRecurrenceInvariant(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 60, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(g, 0, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rng.Sample(59, 15) {
			if _, err := s.Join(graph.NodeID(m + 1)); err != nil {
				t.Fatalf("seed %d: join %d: %v", seed, m+1, err)
			}
		}
		tr := s.Tree()
		shr := s.SHRSnapshot()
		for _, n := range tr.Nodes() {
			if n == tr.Source() {
				if shr[n] != 0 {
					t.Errorf("seed %d: SHR(S,S) = %d", seed, shr[n])
				}
				continue
			}
			p, _ := tr.Parent(n)
			if nr, _ := tr.MemberCount(n); shr[n] != shr[p]+nr {
				t.Errorf("seed %d: SHR(%d)=%d != SHR(%d)=%d + N=%d",
					seed, n, shr[n], p, shr[p], nr)
			}
		}
	}
}

// TestDelayBoundInvariant checks that every member admitted within bound
// satisfies D(S,m) ≤ (1+DThresh)·SPF at join time.
func TestDelayBoundInvariant(t *testing.T) {
	for seed := uint64(10); seed < 14; seed++ {
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 80, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.ReshapeDelta = 0 // isolate the join decision
		s, err := NewSession(g, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rng.Sample(79, 25) {
			res, err := s.Join(graph.NodeID(m + 1))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !res.WithinBound || len(res.Connection) == 1 {
				// In-place joins (the node was already an on-tree relay)
				// inherit the existing path, which is not re-selected.
				continue
			}
			bound := (1 + cfg.DThresh) * res.SPFDelay
			if res.Delay > bound+1e-6 {
				t.Errorf("seed %d: member %d delay %v exceeds bound %v", seed, m+1, res.Delay, bound)
			}
		}
	}
}

// TestReshapeAllConditionII checks the periodic re-selection: after heavy
// churn, ReshapeAll must only ever improve (or keep) each member's merger
// SHR and must preserve tree invariants.
func TestReshapeAllConditionII(t *testing.T) {
	rng := topology.NewRNG(77)
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: 60, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ReshapeDelta = 0 // Condition I off; exercise Condition II alone
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := rng.Sample(59, 20)
	for _, m := range ids {
		if _, err := s.Join(graph.NodeID(m + 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: half of them leave.
	for _, m := range ids[:10] {
		if err := s.Leave(graph.NodeID(m + 1)); err != nil {
			t.Fatal(err)
		}
	}
	moved := s.ReshapeAll()
	if err := s.Tree().Validate(); err != nil {
		t.Fatalf("after ReshapeAll: %v", err)
	}
	// A second immediate pass should move (almost) nothing: reshaping must
	// not oscillate.
	moved2 := s.ReshapeAll()
	if len(moved2) > len(moved) {
		t.Errorf("second ReshapeAll moved %d members (first: %d) — oscillation?", len(moved2), len(moved))
	}
	third := s.ReshapeAll()
	if len(third) != 0 {
		t.Errorf("third ReshapeAll still moved %v — not converging", third)
	}
}

func TestReshapeAllDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PeriodicReshape = false
	s := fig4Session(t, cfg)
	if _, err := s.Join(f4E); err != nil {
		t.Fatal(err)
	}
	if got := s.ReshapeAll(); got != nil {
		t.Errorf("ReshapeAll with PeriodicReshape=false = %v", got)
	}
}

// TestSHRComputesChargeDeferredMaintenance pins the §3.3.2 deferred-
// maintenance charge a session counts beside its eager updates: the first
// read of a mutated tree costs NumNodes, and a reshape check computes the
// table of the tree its member has left. On the Figure-4 sequence:
//
//   - join E selects on the 1-node tree {S} and reads the 4-node tree
//     S→A→D→E for E's baseline: 1 + 4;
//   - join G selects on that tree unchanged and reads the 6-node tree for
//     G's baseline: 6;
//   - join F reads the 7-node tree for F's baseline, Condition I checks E on
//     the 6 nodes left without E, and E's move onto C makes its new baseline
//     read the 8-node tree: 7 + 6 + 8 (G's check reads that tree again);
//   - Leave(G) prunes B and G, and snapshots read the 6-node tree once: 6.
func TestSHRComputesChargeDeferredMaintenance(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	want := 0
	for _, step := range []struct {
		m      graph.NodeID
		charge int
	}{{f4E, 1 + 4}, {f4G, 6}, {f4F, 7 + 6 + 8}} {
		if _, err := s.Join(step.m); err != nil {
			t.Fatal(err)
		}
		want += step.charge
		if got := s.Stats().SHRComputes; got != want {
			t.Fatalf("after join %d: SHRComputes = %d, want %d", step.m, got, want)
		}
	}
	if err := s.Leave(f4G); err != nil {
		t.Fatal(err)
	}
	s.SHRSnapshot()
	s.SHRSnapshot()
	if got := s.Stats().SHRComputes; got != want+6 {
		t.Fatalf("after Leave(G) and two snapshots: SHRComputes = %d, want %d", got, want+6)
	}
	if s.Stats().SHRUpdates == 0 {
		t.Error("the session counted no SHR updates")
	}
}

func TestQuerySchemeJoins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Knowledge = QueryScheme
	s := fig4Session(t, cfg)
	for _, m := range []graph.NodeID{f4E, f4G, f4F} {
		if _, err := s.Join(m); err != nil {
			t.Fatalf("query-scheme join %d: %v", m, err)
		}
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().QueryMessages == 0 {
		t.Error("query scheme should have sent query messages")
	}
	for _, m := range []graph.NodeID{f4E, f4G, f4F} {
		if !s.Tree().IsMember(m) {
			t.Errorf("member %d missing", m)
		}
	}
}

// TestQuerySchemeCountsSweeps pins that the query scheme's per-neighbour
// sweeps count in EnumSettled: each relayed query's sweep settles at least
// the neighbour it starts from.
func TestQuerySchemeCountsSweeps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Knowledge = QueryScheme
	s := fig4Session(t, cfg)
	if _, err := s.Join(f4E); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.QueryMessages == 0 || st.EnumSettled < st.QueryMessages {
		t.Errorf("%d queries settled %d nodes, want at least one each", st.QueryMessages, st.EnumSettled)
	}
}

// TestQuerySchemeJoinCachesSourceTreesOnly pins that a query-scheme join
// finds each neighbor's route toward the source without leaving that
// neighbor's tree in the graph's SPF cache: healthy or degraded, the cache
// holds the source's healthy tree alone.
func TestQuerySchemeJoinCachesSourceTreesOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Knowledge = QueryScheme
	s := fig4Session(t, cfg)
	c := s.Graph().SPFCacheOf()
	for _, m := range []graph.NodeID{f4E, f4G} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1 {
		t.Errorf("healthy: the cache holds %d trees, want the source's 1", c.Len())
	}
	s.ApplyFailure(failure.LinkDown(f4B, f4F)) // off the tree
	if _, err := s.Join(f4C); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("degraded: the cache holds %d trees, want the source's 1", c.Len())
	}
}

// TestQuerySchemeOnRandomGraphs checks the partial-knowledge scheme still
// always connects members on larger graphs.
func TestQuerySchemeOnRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 60, Alpha: 0.25, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Knowledge = QueryScheme
		s, err := NewSession(g, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rng.Sample(59, 15) {
			if _, err := s.Join(graph.NodeID(m + 1)); err != nil {
				t.Fatalf("seed %d: join %d: %v", seed, m+1, err)
			}
		}
		if err := s.Tree().Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
