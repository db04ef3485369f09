package core

import (
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
)

// twoBranchSession builds a fully deterministic session on the 7-node graph
//
//	0 ─1─ 1 ─1─ 2 ─1─ 3 ─1─ 4        (branch A)
//	0 ─1─ 5 ─1─ 6                    (branch B)
//	              3 ─5─ 6            (detour edge)
//
// and joins members 3, 4, 6 in that order, yielding the tree
//
//	0 → 1 → 2 → 3 → 4   (members 3, 4)
//	0 → 5 → 6           (member 6)
//
// with SHR = {1:2, 2:4, 3:6, 4:7, 5:1, 6:2}.
func twoBranchSession(t *testing.T) *Session {
	t.Helper()
	b := graph.New(7)
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{
		{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1},
		{0, 5, 1}, {5, 6, 1},
		{3, 6, 5},
	} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	s, err := NewSession(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4, 6} {
		if _, err := s.Join(m); err != nil {
			t.Fatalf("join %d: %v", m, err)
		}
	}
	return s
}

// assertTableMatchesScratch asserts that the session's maintained SHR column
// is exactly the from-scratch Eq. 2 recompute of the current tree.
func assertTableMatchesScratch(t *testing.T, s *Session, op string) {
	t.Helper()
	want := ComputeSHR(s.Tree())
	for n, w := range want {
		got, err := s.SHR(n)
		if err != nil {
			t.Fatalf("%s: SHR(%d): %v", op, n, err)
		}
		if got != w {
			t.Fatalf("%s: maintained SHR(%d) = %d, scratch recompute %d", op, n, got, w)
		}
	}
}

// TestEagerSHRUpdateCountsDirtyNodesOnly pins the new eager-maintenance
// accounting: Stats.SHRUpdates must count exactly the nodes whose SHR value
// changed (the paper's per-event update messages, §3.3.2), not a tree-wide
// rewrite. The expected deltas below are hand-derived from the fixed
// two-branch tree in twoBranchSession.
func TestEagerSHRUpdateCountsDirtyNodesOnly(t *testing.T) {
	s := twoBranchSession(t)
	assertTableMatchesScratch(t, s, "after joins")

	// Leave(4): member 4 is a leaf, so it is pruned off-tree and branch A's
	// surviving nodes 1, 2, 3 each lose one downstream member
	// (SHR 2→1, 4→2, 6→3). Branch B (nodes 5, 6) is untouched, so exactly
	// 3 update messages must be counted — not the old tree-wide 6.
	before := s.Stats().SHRUpdates
	if err := s.Leave(4); err != nil {
		t.Fatal(err)
	}
	if d := s.Stats().SHRUpdates - before; d != 3 {
		t.Fatalf("Leave(4) counted %d SHR updates, want 3 (nodes 1,2,3)", d)
	}
	assertTableMatchesScratch(t, s, "after leave")

	// Heal(link 2-3 down): member 3 is cut off.
	//   The flush detaches subtree {3}; branch A's survivors 1, 2 drop to
	//   SHR 0 → 2 updates.
	//   Recovery regrafts 3 via the detour 6-3 into branch B; nodes 5, 6
	//   gain a member (SHR 1→2, 2→4) and 3 gets its new value 5 → 3
	//   updates.
	//   PruneStale then reclaims the stale relays 1, 2 — pruned relays have
	//   N_R = 0, so pruning must contribute 0 updates.
	before = s.Stats().SHRUpdates
	rep, err := s.Recover(failure.LinkDown(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Stats().SHRUpdates - before; d != 5 {
		t.Fatalf("Heal counted %d SHR updates, want 5 (2 flush + 3 regraft)", d)
	}
	assertTableMatchesScratch(t, s, "after heal")

	// Sanity on the heal itself so the accounting above is checking the
	// scenario it claims to: 3 recovered over the weight-5 detour, relays
	// 1 and 2 pruned.
	if len(rep.Disconnected) != 1 || rep.Disconnected[0] != 3 {
		t.Fatalf("disconnected = %v, want [3]", rep.Disconnected)
	}
	if rd := rep.RecoveryDistance[3]; rd != 5 {
		t.Fatalf("RD(3) = %v, want 5", rd)
	}
	if len(rep.Pruned) != 2 || rep.Pruned[0] != 1 || rep.Pruned[1] != 2 {
		t.Fatalf("pruned = %v, want [1 2]", rep.Pruned)
	}
	if want := map[graph.NodeID]int{0: 0, 5: 2, 6: 4, 3: 5}; true {
		got := ComputeSHR(s.Tree())
		if len(got) != len(want) {
			t.Fatalf("post-heal SHR = %v, want %v", got, want)
		}
		for n, w := range want {
			if got[n] != w {
				t.Fatalf("post-heal SHR[%d] = %d, want %d", n, got[n], w)
			}
		}
	}
}

// TestDeferredSHRMemoizesOnEpoch pins the deferred-maintenance charge
// against Tree.Epoch(): repeated SHR reads of an unmutated tree must not
// recount SHRComputes — only reads that observe a new tree epoch do.
func TestDeferredSHRMemoizesOnEpoch(t *testing.T) {
	cfg := DefaultConfig()
	b := graph.New(4)
	for _, e := range []struct{ u, v graph.NodeID }{{0, 1}, {1, 2}, {2, 3}} {
		if err := b.AddEdge(e.u, e.v, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	base := s.Stats().SHRComputes
	if base == 0 {
		t.Fatal("join charged no SHR computes")
	}
	// Reads without an intervening mutation: memoized, no recount.
	for i := 0; i < 3; i++ {
		if _, err := s.SHR(3); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().SHRComputes; got != base {
		t.Fatalf("reads of unmutated tree recounted SHRComputes: %d → %d", base, got)
	}
	// A mutation invalidates the memo; the next read recounts.
	if _, err := s.Join(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SHR(2); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SHRComputes; got <= base {
		t.Fatalf("post-mutation read did not recount SHRComputes (still %d)", got)
	}
}

// TestDeferredReshapeCheckForcesLiveTable pins what a reshape check is
// charged in SHRComputes when the tree moved since the last read: deferred
// maintenance adjusts the live table instead of computing the hypothetical
// tree's from scratch, so it brings the live one up to date first, and that
// compute is charged even if a later mutation invalidates it unread.
func TestDeferredReshapeCheckForcesLiveTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PeriodicReshape = true
	b := graph.New(4)
	for _, e := range []struct{ u, v graph.NodeID }{{0, 1}, {1, 2}, {2, 3}} {
		if err := b.AddEdge(e.u, e.v, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 2, 1} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	base := s.Stats().SHRComputes
	if err := s.Leave(3); err != nil { // tree 0→1→2, table stale
		t.Fatal(err)
	}
	if moved := s.ReshapeAll(); len(moved) != 0 {
		t.Fatalf("ReshapeAll moved %v on a line", moved)
	}
	if err := s.Leave(2); err != nil {
		t.Fatal(err)
	}
	// The check of 1 forces the 3-node live table and counts the 1 node left
	// without sub(1); the check of 2 finds the table fresh and counts 2.
	if got, want := s.Stats().SHRComputes-base, 3+1+2; got != want {
		t.Fatalf("SHRComputes grew by %d over Leave, ReshapeAll, Leave; want %d", got, want)
	}
}
