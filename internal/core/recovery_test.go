package core

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

func TestHealSingleMember(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DThresh = 0 // SPF-shaped tree: C and D share S→A
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	// Fail L_AD: D (4) is cut off; local detour D→C with RD 2.
	rep, err := s.Recover(failure.LinkDown(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Disconnected) != 1 || rep.Disconnected[0] != 4 {
		t.Fatalf("disconnected = %v", rep.Disconnected)
	}
	if rd := recoveryOf(rep, 4).RD; rd != 2 {
		t.Errorf("RD = %v, want 2", rd)
	}
	if d := recoveryOf(rep, 4).Detour; d.String() != "4→3" {
		t.Errorf("detour = %v, want D→C", d)
	}
	if len(rep.Unrecovered) != 0 {
		t.Errorf("unrecovered = %v", rep.Unrecovered)
	}
	if rep.TotalRecoveryDistance() != 2 {
		t.Errorf("total RD = %v", rep.TotalRecoveryDistance())
	}
	// Tree is whole again and valid.
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		if !s.Tree().IsMember(m) {
			t.Errorf("member %d lost after heal", m)
		}
	}
	if p, _ := s.Tree().Parent(4); p != 3 {
		t.Errorf("D's new parent = %d, want C", p)
	}
	// The healed tree must not use the failed link.
	if slices.Contains(s.Tree().Edges(), graph.MakeEdgeID(1, 4)) {
		t.Error("healed tree still uses the failed link")
	}
}

func TestHealCascadedRecovery(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DThresh = 0
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	// Fail L_SA: both members cut. D reconnects via B (distance 4); then C
	// reconnects to the now-live D (distance 2) — neighbor-assisted
	// recovery growing the live tree.
	rep, err := s.Recover(failure.LinkDown(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Disconnected) != 2 {
		t.Fatalf("disconnected = %v", rep.Disconnected)
	}
	if rd := recoveryOf(rep, 4).RD; rd != 4 {
		t.Errorf("RD(D) = %v, want 4 (D→B→S)", rd)
	}
	if rd := recoveryOf(rep, 3).RD; rd != 2 {
		t.Errorf("RD(C) = %v, want 2 (C→D after D recovered)", rd)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(s.Tree().Edges(), graph.MakeEdgeID(0, 1)) {
		t.Error("healed tree uses failed link")
	}
}

func TestHealSourceFailure(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	if _, err := s.Join(f4E); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(failure.NodeDown(f4S)); !errors.Is(err, failure.ErrSourceFailed) {
		t.Errorf("heal source failure err = %v", err)
	}
}

// A rejected source failure must leave the session untouched: the mask stays
// empty and later operations behave as if the bad request never happened.
// (Regression: HealSet used to fold the batch into the mask *before*
// discovering the source was in it, permanently bricking the session — every
// subsequent Join returned ErrPartitioned — even though the caller got an
// error back.)
func TestHealSourceFailureLeavesSessionIntact(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	if _, err := s.Join(f4E); err != nil {
		t.Fatal(err)
	}
	// The whole batch is rejected, including the sibling link failure: the
	// cut is correlated, so applying half of it would misrepresent it.
	batch := []failure.Failure{failure.LinkDown(f4S, f4A), failure.NodeDown(f4S)}
	if _, err := s.Recover(batch...); !errors.Is(err, failure.ErrSourceFailed) {
		t.Fatalf("heal batch with source err = %v, want ErrSourceFailed", err)
	}
	if snap := s.Snapshot(); snap.Degraded {
		t.Errorf("session degraded after rejected source failure (mask mutated)")
	}
	if _, err := s.Join(f4G); err != nil {
		t.Errorf("join after rejected source failure: %v", err)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Error(err)
	}
}

// A failure naming a node outside the graph is refused before anything is
// mutated: the mask sizes its words by node ID, so before the check
// LinkDown(0, 1<<40) ran the process out of memory. The whole batch is
// refused, its valid sibling included, and the mask, tree and parked set stay
// as they were. So is a failure of neither kind (the zero Failure included),
// with ErrBadSchedule.
func TestRecoverRefusesUnknownNode(t *testing.T) {
	// S(0)-1-2 line plus 0-3: failing 1-2 parks member 2.
	b := graph.New(4)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 3}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{2, 3} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Recover(failure.LinkDown(1, 2)); err != nil {
		t.Fatal(err)
	}
	mask, nodes, parked := s.FailedMask().Fingerprint(), s.Tree().Nodes(), s.Parked()
	if !slices.Equal(parked, []graph.NodeID{2}) {
		t.Fatalf("parked = %v, want [2]", parked)
	}
	for _, tc := range []struct {
		f    failure.Failure
		want error
	}{
		{failure.LinkDown(0, 1<<40), ErrUnknownNode},
		{failure.NodeDown(1 << 40), ErrUnknownNode},
		{failure.NodeDown(-1), ErrUnknownNode},
		{failure.Failure{}, failure.ErrBadSchedule},
		{failure.Failure{Kind: 99, Node: 3}, failure.ErrBadSchedule},
	} {
		f := tc.f
		if _, err := s.Recover(failure.LinkDown(0, 3), f); !errors.Is(err, tc.want) {
			t.Fatalf("Recover(%v) err = %v, want %v", f, err, tc.want)
		}
		if s.FailedMask().Fingerprint() != mask || !slices.Equal(s.Tree().Nodes(), nodes) || !slices.Equal(s.Parked(), parked) {
			t.Fatalf("Recover(%v) mutated the session: nodes %v parked %v", f, s.Tree().Nodes(), s.Parked())
		}
	}
}

// TestRecoverRefusesUnknownEdge: a link failure whose endpoints no edge joins
// (a node and itself included) is refused whole, so it cannot leave the
// session's mask non-empty and every later join on the degraded path.
func TestRecoverRefusesUnknownEdge(t *testing.T) {
	s := branchCutSession(t)
	g := s.Graph()
	e := g.Edges()[0]
	absent := graph.Invalid
	for v := graph.NodeID(0); absent == graph.Invalid; v++ {
		if v != 7 && !g.HasEdge(7, v) {
			absent = v
		}
	}
	nodes := s.Tree().Nodes()
	for _, fs := range [][]failure.Failure{
		{failure.LinkDown(7, absent)},
		{failure.LinkDown(7, 7)},
		{failure.LinkDown(e.A, e.B), failure.LinkDown(absent, 7)},
	} {
		if _, err := s.Recover(fs...); !errors.Is(err, graph.ErrUnknownEdge) {
			t.Fatalf("Recover(%v) err = %v, want ErrUnknownEdge", fs, err)
		}
		if !s.FailedMask().IsEmpty() || !slices.Equal(s.Tree().Nodes(), nodes) {
			t.Fatalf("Recover(%v) mutated the session: mask %v nodes %v", fs, s.FailedMask(), s.Tree().Nodes())
		}
	}
	if s.maskOrNil() != nil {
		t.Fatal("refused link failures left later joins on the degraded path")
	}
}

func TestHealUnrecoverableMember(t *testing.T) {
	// S(0)-1-2 line, member at 2; failing 1-2 with no alternative strands 2.
	b := graph.New(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 1); err != nil {
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
	if _, err := s.Join(2); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Recover(failure.LinkDown(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrecovered) != 1 || rep.Unrecovered[0] != 2 {
		t.Errorf("unrecovered = %v", rep.Unrecovered)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	// The stranded member's state is flushed; stale relay 1 pruned.
	if s.Tree().OnTree(2) || s.Tree().OnTree(1) {
		t.Errorf("stale state kept: nodes = %v", s.Tree().Nodes())
	}
}

func TestHealNodeFailure(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	for _, m := range []graph.NodeID{f4E, f4G, f4F} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	// After the Figure-4 sequence the tree is S-A-D-F, S-A-C-E, S-B-G.
	// Node D fails: F is disconnected (E is on the C branch).
	rep, err := s.Recover(failure.NodeDown(f4D))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Disconnected) != 1 || rep.Disconnected[0] != f4F {
		t.Fatalf("disconnected = %v, want [F]", rep.Disconnected)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Tree().IsMember(f4F) {
		t.Error("F not recovered")
	}
	if s.Tree().OnTree(f4D) {
		t.Error("failed node still on tree")
	}
	// F's detour must avoid D: F→G (0.8) reaching the live B branch.
	if d := recoveryOf(rep, f4F).Detour; slices.Contains(d, f4D) {
		t.Errorf("detour %v passes through failed node", d)
	}
}

// TestHealRandomWorstCases drives Heal across random scenarios and checks
// global invariants: healed trees are valid, avoid the failed component, and
// retain every recoverable member.
func TestHealRandomWorstCases(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 70, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(g, 0, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		members := rng.Sample(69, 12)
		for _, m := range members {
			if _, err := s.Join(graph.NodeID(m + 1)); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		victim := graph.NodeID(members[0] + 1)
		f, err := failure.WorstCaseFor(s.Tree(), victim)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Tree().NumMembers()
		rep, err := s.Recover(f)
		if err != nil {
			t.Fatalf("seed %d: heal: %v", seed, err)
		}
		if err := s.Tree().Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if slices.Contains(s.Tree().Edges(), f.Edge) {
			t.Errorf("seed %d: healed tree uses failed link", seed)
		}
		if got := s.Tree().NumMembers() + len(rep.Unrecovered); got != before {
			t.Errorf("seed %d: members %d + unrecovered %d != %d",
				seed, s.Tree().NumMembers(), len(rep.Unrecovered), before)
		}
		// Session remains usable after healing: one more join. The session
		// now treats the graph as degraded, so candidates the failure cut
		// off park with ErrPartitioned — skip those and join the first
		// reachable node.
		for n := 1; n < g.NumNodes(); n++ {
			nd := graph.NodeID(n)
			if s.Tree().IsMember(nd) || f.Mask().NodeBlocked(nd) {
				continue
			}
			if _, err := s.Join(nd); err != nil {
				if errors.Is(err, ErrPartitioned) {
					continue
				}
				t.Fatalf("seed %d: post-heal join: %v", seed, err)
			}
			break
		}
		if err := s.Tree().Validate(); err != nil {
			t.Fatalf("seed %d: post-heal join invariant: %v", seed, err)
		}
	}
}

// TestRecoverEmptySet pins the blessed entry point's argument contract.
func TestRecoverEmptySet(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); !errors.Is(err, failure.ErrBadSchedule) {
		t.Errorf("Recover() error = %v, want ErrBadSchedule", err)
	}
}

// TestTotalRecoveryDistanceIsOrdered: the sum runs in ascending member
// order. Summed that way {1, 1e-16, 1e-16} is 1; the two small terms first
// give 1.0000000000000002.
func TestTotalRecoveryDistanceIsOrdered(t *testing.T) {
	one, tiny := 1.0, 1e-16
	rep := &HealReport{Recovered: []Recovery{{Member: 7, RD: one}, {Member: 9, RD: tiny}, {Member: 33, RD: tiny}}}
	if got, want := rep.TotalRecoveryDistance(), one+tiny+tiny; got != want {
		t.Fatalf("total RD = %v, want %v", got, want)
	}
}

func byMember(a, b Recovery) int { return cmp.Compare(a.Member, b.Member) }

// recoveryOf returns m's record in rep, the zero Recovery when m has none.
func recoveryOf(rep *HealReport, m graph.NodeID) Recovery {
	i, ok := slices.BinarySearchFunc(rep.Recovered, Recovery{Member: m}, byMember)
	if !ok {
		return Recovery{}
	}
	return rep.Recovered[i]
}

// TestRecoverSettledPerMember gates the restoration's work where the clock
// cannot be trusted, on the paper's regime (N=100, 30 members, worst-case
// cuts). Whichever side reconnect sweeps from, the recovery scans of one event
// settle at most N nodes per disconnected member (the round-wise loop read
// ≈275 per member: a branch of k members swept k(k+1)/2 times). And an event
// that takes the whole tree, which the tree side answers, settles at most
// 2.5·N in all: the field's one pass over the graph with the nodes a graft
// brings nearer handed out again, plus every member's sweep along its own
// path. One recorded ball per member reads 3.2–3.9·N on the same cuts, a
// sweep confined by the radius alone more still.
func TestRecoverSettledPerMember(t *testing.T) {
	s := branchCutSession(t)
	n := s.g.NumNodes()
	var settled, cut, whole int
	for _, m := range s.tree.Members() {
		rep, got := branchCut(t, s, m)
		k := len(rep.Disconnected)
		if k == 0 || len(rep.Unrecovered) > 0 {
			t.Fatalf("cut above %d: disconnected %v, unrecovered %v", m, rep.Disconnected, rep.Unrecovered)
		}
		if got > n*k {
			t.Errorf("cut above %d: %d nodes settled reconnecting %d members, want ≤ %d each", m, got, k, n)
		}
		if k == s.tree.NumMembers() {
			whole++
			if got > 5*n/2 {
				t.Errorf("cut above %d takes the whole tree: %d nodes settled reconnecting %d members, want ≤ %d", m, got, k, 5*n/2)
			}
		}
		settled += got
		cut += k
	}
	t.Logf("%d settled ÷ %d disconnected = %.1f per member; %d cuts took the whole tree", settled, cut, float64(settled)/float64(cut), whole)
	if whole == 0 {
		t.Error("coverage: no cut took the whole tree")
	}
}
