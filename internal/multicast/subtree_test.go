package multicast

import (
	"errors"
	"slices"
	"testing"

	"smrp/internal/graph"
)

// chainTree builds S(0)→1→2→3 with members at 2 and 3 on the line graph
// 0-1-2-3-4.
func chainTree(t *testing.T) *Tree {
	t.Helper()
	b := graph.New(5)
	for i := 0; i < 4; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	tr, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{0, 1, 2}, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{2, 3}, true); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRemoveSubtree: detaching a subtree and pruning from its parent removes
// it the way a leave of all its members would.
func TestRemoveSubtree(t *testing.T) {
	tr := chainTree(t)
	if _, err := tr.DetachSubtree(2, nil); err != nil {
		t.Fatal(err)
	}
	tr.PruneFrom([]graph.NodeID{1})
	// 2 and 3 gone; relay 1 pruned because nothing remains below it.
	for _, n := range []graph.NodeID{1, 2, 3} {
		if tr.OnTree(n) {
			t.Errorf("node %d should be gone", n)
		}
	}
	if tr.NumMembers() != 0 {
		t.Errorf("members = %v", tr.Members())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachSubtreeKeepsRelays(t *testing.T) {
	tr := chainTree(t)
	flushed, err := tr.DetachSubtree(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Sort(flushed); !slices.Equal(flushed, []graph.NodeID{2, 3}) {
		t.Errorf("flushed members %v, want [2 3]", flushed)
	}
	if tr.OnTree(2) || tr.OnTree(3) {
		t.Error("detached nodes should be gone")
	}
	if !tr.OnTree(1) {
		t.Error("relay 1 must survive a detach (soft state not expired)")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pruning from the detach point then reclaims the leftover relay, as a
	// sweep of the whole tree does.
	swept := tr.Clone().PruneStale()
	removed := tr.PruneFrom([]graph.NodeID{1})
	if len(removed) != 1 || removed[0] != 1 || !slices.Equal(removed, swept) {
		t.Errorf("PruneFrom removed %v, PruneStale %v, want [1]", removed, swept)
	}
	if tr.NumNodes() != 1 {
		t.Errorf("nodes = %v", tr.Nodes())
	}
}

func TestDetachSubtreeErrors(t *testing.T) {
	tr := chainTree(t)
	if _, err := tr.DetachSubtree(0, nil); err == nil {
		t.Error("detaching the source must fail")
	}
	if _, err := tr.DetachSubtree(4, nil); !errors.Is(err, ErrNotOnTree) {
		t.Errorf("off-tree err = %v", err)
	}
}

func TestPruneStaleKeepsMembersAndSource(t *testing.T) {
	tr := chainTree(t)
	if got := tr.PruneStale(); len(got) != 0 {
		t.Errorf("nothing is stale, removed %v", got)
	}
	// Interior ex-member chain: member 3 leaves → nothing stale (2 still a
	// member); member 2 leaves → chain pruned by Leave itself.
	if err := tr.Leave(3); err != nil {
		t.Fatal(err)
	}
	if got := tr.PruneStale(); len(got) != 0 {
		t.Errorf("removed %v after leaf leave", got)
	}
}

func TestPruneStaleChain(t *testing.T) {
	tr := chainTree(t)
	// Manually orphan the chain: unmark members without pruning by
	// detaching the deepest member only.
	if _, err := tr.DetachSubtree(3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.DetachSubtree(2, nil); err != nil {
		t.Fatal(err)
	}
	// The first detach point (2) is off the tree by now: a hint that is gone
	// is skipped, the live one (1) prunes the chain.
	if swept, hinted := tr.Clone().PruneStale(), tr.Clone().PruneFrom([]graph.NodeID{2, 1}); !slices.Equal(swept, hinted) {
		t.Errorf("PruneFrom removed %v, PruneStale %v", hinted, swept)
	}
	removed := tr.PruneStale()
	if len(removed) != 1 || removed[0] != 1 {
		t.Errorf("removed %v, want [1]", removed)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
