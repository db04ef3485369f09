package multicast

import (
	"math/rand"
	"testing"

	"smrp/internal/graph"
)

// TestSlotIndexMatchesMap drives the index through random insertions across
// several growths and checks every lookup against a map: each inserted node
// finds its slot, and absent IDs — Invalid, other negatives, IDs beyond any
// graph — find none. The table never passes half full.
func TestSlotIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	var x slotIndex
	x.resize(minSlotTable, nil)
	var nodeOf []graph.NodeID
	ref := map[graph.NodeID]int32{}
	growths := 0
	probe := func(n graph.NodeID) {
		t.Helper()
		want, ok := ref[n]
		if !ok {
			want = -1
		}
		if got := x.find(n, nodeOf); got != want {
			t.Fatalf("after %d slots: find(%d) = %d, map says %d", len(nodeOf), n, got, want)
		}
	}
	for len(nodeOf) < 1500 {
		// Clustered IDs, as a tree touches them, and a few far ones.
		n := graph.NodeID(rng.Intn(4096))
		if rng.Intn(16) == 0 {
			n = graph.NodeID(rng.Int63n(1 << 40))
		}
		if _, ok := ref[n]; ok {
			continue
		}
		size := len(x.tab)
		ref[n] = int32(len(nodeOf))
		nodeOf = append(nodeOf, n)
		x.add(nodeOf)
		if len(x.tab) != size {
			growths++
		}
		if 2*len(nodeOf) > len(x.tab) {
			t.Fatalf("%d slots in a table of %d", len(nodeOf), len(x.tab))
		}
		for _, m := range []graph.NodeID{n, nodeOf[rng.Intn(len(nodeOf))], graph.Invalid,
			graph.NodeID(-2 - rng.Intn(1000)), 4096 + graph.NodeID(rng.Intn(4096)), graph.NodeID(rng.Intn(4096))} {
			probe(m)
		}
	}
	if growths < 4 {
		t.Fatalf("index grew %d times, want at least 4", growths)
	}
	for n := range ref {
		probe(n)
	}
}

// TestSparseCloneIndependent grows a clone's index past the original's size
// and checks neither tree sees the other's slots.
func TestSparseCloneIndependent(t *testing.T) {
	const n = 300
	b := graph.New(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1)
	}
	g := b.Freeze()
	orig, err := NewSparse(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Graft(graph.Path{0, 1, 2}, true); err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	chain := graph.Path{2}
	for i := 3; i < n; i++ {
		chain = append(chain, graph.NodeID(i))
	}
	if err := clone.Graft(chain, true); err != nil {
		t.Fatal(err)
	}
	if err := orig.Graft(graph.Path{0}, true); err != nil {
		t.Fatal(err)
	}
	if len(clone.slots.tab) <= len(orig.slots.tab) {
		t.Fatalf("clone table %d did not outgrow the original's %d", len(clone.slots.tab), len(orig.slots.tab))
	}
	for i := range graph.NodeID(n) {
		if got, want := orig.idx(i) >= 0, i <= 2; got != want {
			t.Fatalf("original: node %d has a slot = %v, want %v", i, got, want)
		}
		if clone.idx(i) < 0 {
			t.Fatalf("clone: node %d has no slot", i)
		}
	}
	if orig.IsMember(graph.NodeID(n-1)) || clone.IsMember(0) {
		t.Fatal("a mutation reached the other tree")
	}
	for _, tr := range []*Tree{orig, clone} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
