package multicast

import (
	"fmt"
	"slices"
	"testing"

	"smrp/internal/graph"
)

// fuzzNodes is the size of FuzzTreeOps' topology: a ring with a chord from
// every node to the one five along, so paths branch and subtrees can move.
const fuzzNodes = 12

func fuzzGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	b := graph.New(fuzzNodes)
	for i := 0; i < fuzzNodes; i++ {
		u := graph.NodeID(i)
		if err := b.AddEdge(u, graph.NodeID((i+1)%fuzzNodes), float64(1+i%3)); err != nil {
			tb.Fatal(err)
		}
		if err := b.AddEdge(u, graph.NodeID((i+5)%fuzzNodes), 2.5); err != nil {
			tb.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// treeModel is a tree as two plain maps, the slow and obviously right form
// FuzzTreeOps holds both backends to: children, N_R and SHR are derived from
// the parent map on every read.
type treeModel struct {
	source graph.NodeID
	parent map[graph.NodeID]graph.NodeID // every on-tree node; the source's is Invalid
	member map[graph.NodeID]bool
}

func newTreeModel(source graph.NodeID) *treeModel {
	return &treeModel{
		source: source,
		parent: map[graph.NodeID]graph.NodeID{source: graph.Invalid},
		member: map[graph.NodeID]bool{},
	}
}

func (m *treeModel) clone() *treeModel {
	c := newTreeModel(m.source)
	for n, p := range m.parent {
		c.parent[n] = p
	}
	for n := range m.member {
		c.member[n] = true
	}
	return c
}

func (m *treeModel) onTree(n graph.NodeID) bool {
	_, ok := m.parent[n]
	return ok
}

// nodes lists the on-tree nodes, ascending.
func (m *treeModel) nodes() []graph.NodeID {
	var out []graph.NodeID
	for n := range m.parent {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func (m *treeModel) members() []graph.NodeID {
	var out []graph.NodeID
	for n := range m.member {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func (m *treeModel) children(n graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for k, p := range m.parent {
		if p == n && k != m.source {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// inSubtree reports whether r is n or one of n's ancestors.
func (m *treeModel) inSubtree(n, r graph.NodeID) bool {
	for ; n != graph.Invalid; n = m.parent[n] {
		if n == r {
			return true
		}
	}
	return false
}

// nr counts the members of r's subtree.
func (m *treeModel) nr(r graph.NodeID) int {
	c := 0
	for n := range m.member {
		if m.inSubtree(n, r) {
			c++
		}
	}
	return c
}

// shr is Eq. 1: the sum of N_R over n's root path, the source excluded.
func (m *treeModel) shr(n graph.NodeID) int {
	s := 0
	for ; n != m.source; n = m.parent[n] {
		s += m.nr(n)
	}
	return s
}

// pruneUp removes n and its ancestors while they are childless non-member
// relays, appending them to removed.
func (m *treeModel) pruneUp(n graph.NodeID, removed []graph.NodeID) []graph.NodeID {
	for n != graph.Invalid && n != m.source && m.onTree(n) && len(m.children(n)) == 0 && !m.member[n] {
		removed = append(removed, n)
		p := m.parent[n]
		delete(m.parent, n)
		n = p
	}
	return removed
}

// chainOK reports whether p can hang from the tree: it starts on the tree,
// follows graph edges, repeats no node and, past its first node, runs
// through off-tree nodes only — up to its last, whose own status is the
// caller's concern.
func (m *treeModel) chainOK(g *graph.Graph, p graph.Path) bool {
	if len(p) == 0 || !m.onTree(p[0]) || p.Validate(g) != nil || !p.IsSimple() {
		return false
	}
	for i := 1; i < len(p)-1; i++ {
		if m.onTree(p[i]) {
			return false
		}
	}
	return true
}

// opReader hands out a fuzz input one byte at a time, 0 once it is used up.
type opReader []byte

func (r *opReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// walk extends p by up to hops steps along graph edges chosen by the input,
// stopping after the first on-tree node it steps on when stopOnTree is set.
func (r *opReader) walk(g *graph.Graph, m *treeModel, p graph.Path, hops int, stopOnTree bool) graph.Path {
	for i := 0; i < hops; i++ {
		nb := g.Neighbors(p.Last())
		n := nb[r.next()%len(nb)].To
		p = append(p, n)
		if stopOnTree && m.onTree(n) {
			break
		}
	}
	return p
}

// FuzzTreeOps runs byte-decoded sequences of Graft, Leave, Reroute,
// DetachSubtree, PruneFrom and Clone on a dense and a sparse tree side by
// side and holds both, after every operation, to treeModel: which operations
// fail, what they return, and every read — nodes, members, parents, ascending
// children, N_R and SHR — for every node of the graph and two outside it. A
// Clone continues on one copy and retires the other with a snapshot of the
// model, which it must still match at the end, whatever the survivor did.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 2, 0, 0, 1, 4, 2, 0, 0, 0, 2, 3, 1, 1, 1})
	f.Add([]byte{0, 0, 3, 0, 1, 2, 0, 0, 2, 3, 3, 0, 2, 2, 1, 3, 1, 2, 3, 5, 1, 2, 1, 0, 1, 1})
	f.Add([]byte{0, 0, 2, 1, 1, 0, 0, 1, 2, 3, 0, 5, 0, 0, 3, 2, 4, 1, 3, 4, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 3, 2, 2, 2, 0, 5, 0, 1, 0, 3, 4, 4, 4, 0, 0, 2, 1, 1, 0, 4, 2, 1, 1})
	g := fuzzGraph(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dense, err := New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewSparse(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		trees, model := [2]*Tree{dense, sparse}, newTreeModel(0)
		type retiredTree struct {
			tr    *Tree
			model *treeModel
		}
		var retired []retiredTree
		r := opReader(data)
		for op := 0; len(r) > 0; op++ {
			nodes := model.nodes()
			onTreeNode := func() graph.NodeID { return nodes[r.next()%len(nodes)] }
			anyNode := func() graph.NodeID { return graph.NodeID(r.next()%(fuzzNodes+2) - 1) }
			// do runs one operation on both trees; ok is whether the model
			// admits it, and each tree must fail exactly when it does not.
			do := func(what string, ok bool, run func(*Tree) error) {
				for i, tr := range trees {
					if err := run(tr); (err == nil) != ok {
						t.Fatalf("op %d: %s on tree %d: err %v, model admits it: %v", op, what, i, err, ok)
					}
				}
			}
			switch r.next() % 6 {
			case 0:
				p := r.walk(g, model, graph.Path{onTreeNode()}, r.next()%4, false)
				mark := r.next()%2 == 0
				ok := model.chainOK(g, p) && (len(p) == 1 || !model.onTree(p.Last()))
				do(fmt.Sprintf("Graft(%v, %v)", p, mark), ok, func(tr *Tree) error { return tr.Graft(p, mark) })
				if ok {
					for i := 1; i < len(p); i++ {
						model.parent[p[i]] = p[i-1]
					}
					if mark {
						model.member[p.Last()] = true
					}
				}
			case 1:
				m := anyNode()
				ok := model.member[m]
				do(fmt.Sprintf("Leave(%d)", m), ok, func(tr *Tree) error { return tr.Leave(m) })
				if ok {
					delete(model.member, m)
					model.pruneUp(m, nil)
				}
			case 2:
				m := onTreeNode()
				p := r.walk(g, model, graph.Path{m}, 1+r.next()%4, true).Reverse()
				ok := model.chainOK(g, p) && !model.inSubtree(p[0], m)
				do(fmt.Sprintf("Reroute(%d, %v)", m, p), ok, func(tr *Tree) error { return tr.Reroute(m, p) })
				if ok {
					old := model.parent[m]
					for i := 1; i < len(p); i++ {
						model.parent[p[i]] = p[i-1]
					}
					model.pruneUp(old, nil)
				}
			case 3:
				root := anyNode()
				ok := model.onTree(root) && root != model.source
				var sub, want []graph.NodeID
				for _, n := range nodes {
					if ok && model.inSubtree(n, root) {
						sub = append(sub, n)
					}
				}
				for _, n := range sub {
					delete(model.parent, n)
					if model.member[n] {
						delete(model.member, n)
						want = append(want, n)
					}
				}
				do(fmt.Sprintf("DetachSubtree(%d)", root), ok, func(tr *Tree) error {
					flushed, err := tr.DetachSubtree(root, nil)
					if slices.Sort(flushed); !slices.Equal(flushed, want) {
						t.Fatalf("op %d: DetachSubtree(%d) flushed %v, want %v", op, root, flushed, want)
					}
					return err
				})
			case 4:
				hints := []graph.NodeID{anyNode(), anyNode()}
				var want []graph.NodeID
				for _, n := range hints {
					want = model.pruneUp(n, want)
				}
				slices.Sort(want)
				do(fmt.Sprintf("PruneFrom(%v)", hints), true, func(tr *Tree) error {
					if got := tr.PruneFrom(hints); !slices.Equal(got, want) {
						t.Fatalf("op %d: PruneFrom(%v) = %v, want %v", op, hints, got, want)
					}
					return nil
				})
			case 5:
				keepOriginal := r.next()%2 == 0
				for i, tr := range trees {
					c := tr.Clone()
					if keepOriginal {
						tr, c = c, tr
					}
					retired = append(retired, retiredTree{tr, model.clone()})
					trees[i] = c
				}
			}
			if trees[0].Epoch() != trees[1].Epoch() {
				t.Fatalf("op %d: epochs %d and %d", op, trees[0].Epoch(), trees[1].Epoch())
			}
			for i, tr := range trees {
				checkTreeModel(t, fmt.Sprintf("op %d, tree %d", op, i), tr, model)
			}
		}
		for i, rt := range retired {
			checkTreeModel(t, fmt.Sprintf("retired tree %d", i), rt.tr, rt.model)
		}
	})
}

// checkTreeModel compares every read of tr with the model.
func checkTreeModel(t *testing.T, where string, tr *Tree, m *treeModel) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if got, want := tr.Nodes(), m.nodes(); !slices.Equal(got, want) {
		t.Fatalf("%s: nodes %v, want %v", where, got, want)
	}
	if got, want := tr.Members(), m.members(); !slices.Equal(got, want) {
		t.Fatalf("%s: members %v, want %v", where, got, want)
	}
	buf := []graph.NodeID{graph.Invalid}
	for n := graph.NodeID(-1); n <= fuzzNodes; n++ {
		on := m.onTree(n)
		if tr.OnTree(n) != on || tr.IsMember(n) != m.member[n] {
			t.Fatalf("%s: node %d on tree %v member %v, want %v %v", where, n, tr.OnTree(n), tr.IsMember(n), on, m.member[n])
		}
		kids := m.children(n)
		buf = tr.AppendChildren(buf[:1], n)
		if !slices.Equal(buf[1:], kids) || tr.NumChildren(n) != len(kids) || !slices.Equal(tr.Children(n), kids) {
			t.Fatalf("%s: children of %d %v (%d), want %v", where, n, buf[1:], tr.NumChildren(n), kids)
		}
		if !on {
			continue
		}
		if p, _ := tr.Parent(n); p != m.parent[n] {
			t.Fatalf("%s: parent of %d %d, want %d", where, n, p, m.parent[n])
		}
		if nr, _ := tr.MemberCount(n); nr != m.nr(n) {
			t.Fatalf("%s: N_%d = %d, want %d", where, n, nr, m.nr(n))
		}
		if tr.SHR(n) != m.shr(n) {
			t.Fatalf("%s: SHR_%d = %d, want %d", where, n, tr.SHR(n), m.shr(n))
		}
	}
}
