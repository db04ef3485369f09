package graph

import (
	"math/rand"
	"testing"
)

func TestPathBasics(t *testing.T) {
	g := line(t, 5)
	p := Path{0, 1, 2, 3}
	if p.First() != 0 || p.Last() != 3 {
		t.Errorf("First/Last = %d/%d, want 0/3", p.First(), p.Last())
	}
	w, err := p.Weight(g)
	if err != nil || w != 3 {
		t.Errorf("Weight = %v,%v, want 3,nil", w, err)
	}
	if err := p.Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPathWeightInvalidEdge(t *testing.T) {
	g := line(t, 5)
	p := Path{0, 2}
	if _, err := p.Weight(g); err == nil {
		t.Error("Weight over non-edge should error")
	}
	if err := p.Validate(g); err == nil {
		t.Error("Validate over non-edge should error")
	}
}

func TestPathEdges(t *testing.T) {
	p := Path{3, 1, 2}
	edges := p.Edges()
	want := []EdgeID{{1, 3}, {1, 2}}
	if len(edges) != 2 || edges[0] != want[0] || edges[1] != want[1] {
		t.Errorf("Edges = %v, want %v", edges, want)
	}
	if (Path{7}).Edges() != nil {
		t.Error("single-node path should have no edges")
	}
}

func TestPathReverse(t *testing.T) {
	p := Path{0, 1, 2}
	r := p.Reverse()
	if r.String() != "2→1→0" {
		t.Errorf("Reverse = %v", r)
	}
	if p.String() != "0→1→2" {
		t.Error("Reverse mutated the original")
	}
}

func TestPathIsSimple(t *testing.T) {
	// run returns the path 0, 1, …, n-1.
	run := func(n int) Path {
		p := make(Path, n)
		for i := range p {
			p[i] = NodeID(i)
		}
		return p
	}
	for _, tc := range []struct {
		name string
		p    Path
		want bool
	}{
		{"empty", Path{}, true},
		{"single node", Path{7}, true},
		{"simple", Path{0, 1, 2}, true},
		{"loop", Path{0, 1, 0}, false},
		{"repeat at both ends", Path{4, 2, 9, 3, 4}, false},
		{"adjacent repeat", Path{4, 2, 2, 3}, false},
		{"at the cutoff, simple", run(simpleByPairs), true},
		{"at the cutoff, ends repeat", append(run(simpleByPairs-1), 0), false},
		{"past the cutoff, simple", run(simpleByPairs + 1), true},
		{"past the cutoff, ends repeat", append(run(simpleByPairs), 0), false},
		{"past the cutoff, repeat at the tail", append(run(3*simpleByPairs), 3*simpleByPairs-1), false},
	} {
		if got := tc.p.IsSimple(); got != tc.want {
			t.Errorf("%s: %v.IsSimple() = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

// TestPathIsSimpleMatchesMap holds IsSimple to a set of the nodes seen, on
// generated paths of 0–200 nodes on either side of the pairwise cutoff, drawn
// from alphabets small enough that about two in three of them repeat a node.
func TestPathIsSimpleMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n <= 200; n++ {
		for trial := 0; trial < 8; trial++ {
			p := make(Path, n)
			alphabet := n*n/2 + 1
			for i := range p {
				p[i] = NodeID(rng.Intn(alphabet))
			}
			seen, want := make(map[NodeID]bool, n), true
			for _, v := range p {
				if seen[v] {
					want = false
				}
				seen[v] = true
			}
			if got := p.IsSimple(); got != want {
				t.Fatalf("%v.IsSimple() = %v, want %v", p, got, want)
			}
		}
	}
}

func TestPathString(t *testing.T) {
	if got := (Path{}).String(); got != "<empty>" {
		t.Errorf("empty path String = %q", got)
	}
	if got := (Path{4}).String(); got != "4" {
		t.Errorf("String = %q, want 4", got)
	}
}

func TestComponents(t *testing.T) {
	b := New(6)
	mustEdge(t, b, 0, 1, 1)
	mustEdge(t, b, 1, 2, 1)
	mustEdge(t, b, 3, 4, 1)
	g := b.Freeze()
	comps := g.Components(nil)
	if len(comps) != 3 {
		t.Fatalf("Components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes = %d,%d,%d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
	if g.Connected(nil) {
		t.Error("disconnected graph reported connected")
	}
}

func TestComponentsWithMask(t *testing.T) {
	g := line(t, 4)
	if !g.Connected(nil) {
		t.Fatal("line should be connected")
	}
	mask := NewMask().BlockEdge(1, 2)
	comps := g.Components(mask)
	if len(comps) != 2 {
		t.Fatalf("masked components = %d, want 2", len(comps))
	}
	// Masked node disappears entirely.
	mask2 := NewMask().BlockNode(1)
	comps2 := g.Components(mask2)
	if len(comps2) != 2 {
		t.Fatalf("node-masked components = %d, want 2", len(comps2))
	}
	for _, c := range comps2 {
		for _, n := range c {
			if n == 1 {
				t.Error("blocked node appeared in a component")
			}
		}
	}
}
