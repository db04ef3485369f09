package core

import (
	"sync"

	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// arena is the scratch one operation runs in — a join and the reshape checks
// it triggers, a batch, a reshape pass, a heal's reconnect loop: the sweep, the
// view of the tree a selection reads, and the members a reshape pass goes over
// (the surviving nodes a heal seeds its field with). Arenas are pooled like
// the sweeps they hold, so a session stands on none of this between operations
// and a warm operation allocates none of it.
type arena struct {
	sw      *graph.Sweep
	view    treeView
	members []graph.NodeID

	// Of reconnect: one entry per member (the scan records keep their storage
	// from heal to heal), the member-side engine's scan references, the
	// tree-side engine's contenders of a round as positions in todo, and the
	// path being grafted. slot is NodeID-indexed and zero between heals: the
	// tree-side engine keeps 1 + each pending member's position in todo in
	// it, the member-side engine the head of each node's list of references.
	// Each engine zeroes the entries it set, so a heal pays for what it
	// touched, never for the size of the graph.
	todo       []reconnecting
	slot       []int32
	refs       []scanRef
	contenders []int32
	graft      graph.Path
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// newArena acquires a pooled arena with a sweep bound to the session's graph.
// Release it when the operation is done.
func (s *Session) newArena() *arena {
	a := arenaPool.Get().(*arena)
	a.sw = s.g.NewSweep()
	return a
}

// reconnecting returns a's entries for the members of a heal, reset.
func (a *arena) reconnecting(members []graph.NodeID) []reconnecting {
	if k := len(members); k > cap(a.todo) {
		a.todo = append(a.todo[:cap(a.todo)], make([]reconnecting, k-cap(a.todo))...)
	}
	todo := a.todo[:len(members)]
	for i, m := range members {
		todo[i] = reconnecting{m: m, scan: todo[i].scan[:0], radius: -1, cur: -1, at: -1}
	}
	return todo
}

// slots returns a's slot array for a graph of n nodes, zero everywhere.
func (a *arena) slots(n int) []int32 {
	if len(a.slot) < n {
		a.slot = make([]int32, n)
	}
	return a.slot
}

func (a *arena) release() {
	a.sw.Release()
	a.sw = nil
	a.view.t = nil
	arenaPool.Put(a)
}

// treeView is the tree as one path selection reads it: which nodes are on it,
// what a merger's delay is, and SHR(S, R) for each of them. A join reads the
// session's tree and its SHR column as they stand (whole). A reshape of
// member m (§3.2.3) must read them as if m's subtree had left, and it reads
// the same tree through what that departure changes (without):
//
//   - gone from the tree are sub(m) and the relay chain above m that the
//     leave would prune — the ancestors that are no member, not the source, and
//     have no child but the one being removed (what Tree.PruneFrom removes
//     from m's parent). The first ancestor that stays is the current merger.
//
//   - every node that stays keeps its parent, so its tree delay is unchanged.
//
//   - N_R' falls by N_m at exactly the ancestors of m that stay, the current
//     merger and everything above it. By Eq. 2, SHR(S,R) sums N_R' over the
//     R' ≠ S on S→R, so for a node R that stays
//
//     SHR'(S,R) = SHR(S,R) − N_m · |{R' ≠ S on S→R : R' is the current merger or above it}|
//
//     and that count is the depth of the deepest such R', the first one met
//     walking up from R.
//
// A check therefore marks O(|sub(m)| + depth(m)) nodes and walks O(depth) per
// candidate; the tree is neither copied nor its SHR recomputed.
type treeView struct {
	t *multicast.Tree

	// Of a reshape view only (cut > 0). marks is NodeID-indexed, like the
	// arrays of the sweep it is pooled with: markGone for the nodes that left,
	// the depth k ≥ 1 for the current merger and its ancestors below the
	// source, 0 everywhere else and everywhere between checks. marked lists
	// every node with a mark: the sub nodes of sub(m), m first, then the
	// pruned chain, cut nodes that left in all, then the ancestors that stay.
	// nm is N_m. avoid blocks what a new path for m must keep out of: sub(m)
	// but m itself, and the session's failed components (empty between
	// checks).
	marks    []int32
	marked   []graph.NodeID
	sub, cut int
	nm       int
	avoid    *graph.Mask
	failed   *graph.Mask

	// conn is the winner's connection.
	conn graph.Path
}

const markGone = -1

// whole makes v the view of t as it stands.
func (v *treeView) whole(t *multicast.Tree) *treeView {
	v.t = t
	return v
}

// without makes v the view of t as if the subtree of the on-tree non-source
// node m had left, with v.avoid for the mask m's new path is selected under
// (failed is the session's own, nil while healthy), and returns the current
// merger: the deepest ancestor of m that stays. restore must be called before
// the view is set up again.
func (v *treeView) without(t *multicast.Tree, m graph.NodeID, failed *graph.Mask) (curMerger graph.NodeID) {
	v.t, v.failed = t, failed
	v.nm, _ = t.MemberCount(m)
	if n := t.Graph().NumNodes(); len(v.marks) < n {
		v.marks = make([]int32, n)
	}
	if v.avoid == nil {
		v.avoid = graph.NewMask()
	}

	src := t.Source()
	v.marked = t.AppendSubtree(v.marked[:0], m)
	v.sub = len(v.marked)
	up, _ := t.Parent(m)
	for up != src && !t.IsMember(up) && t.NumChildren(up) == 1 {
		v.marked = append(v.marked, up)
		up, _ = t.Parent(up)
	}
	v.cut = len(v.marked)
	for _, n := range v.marked {
		v.marks[n] = markGone
	}
	v.avoid.BlockNodes(v.marked[1:v.sub]...)
	failed.Each(v.block)
	curMerger = up
	for ; up != src; up, _ = t.Parent(up) {
		v.marked = append(v.marked, up)
	}
	for i, n := range v.marked[v.cut:] {
		v.marks[n] = int32(len(v.marked) - v.cut - i)
	}
	return curMerger
}

// restore takes the marks and blocks of without back, leaving v a view of the
// whole tree.
func (v *treeView) restore() {
	for _, n := range v.marked[1:v.sub] {
		v.avoid.UnblockNode(n)
	}
	v.failed.Each(v.unblock)
	for _, n := range v.marked {
		v.marks[n] = 0
	}
	v.marked, v.sub, v.cut, v.failed = v.marked[:0], 0, 0, nil
}

func (v *treeView) block(e graph.MaskElem) {
	if e.IsEdge {
		v.avoid.BlockEdge(e.Edge.A, e.Edge.B)
	} else {
		v.avoid.BlockNode(e.Node)
	}
}

func (v *treeView) unblock(e graph.MaskElem) {
	if e.IsEdge {
		v.avoid.UnblockEdge(e.Edge.A, e.Edge.B)
	} else {
		v.avoid.UnblockNode(e.Node)
	}
}

// left reports whether n is one of the nodes the view reads as departed.
func (v *treeView) left(n graph.NodeID) bool { return v.cut > 0 && v.marks[n] == markGone }

// onTree reports whether n is on the tree the view stands for.
func (v *treeView) onTree(n graph.NodeID) bool { return v.t.OnTree(n) && !v.left(n) }

// numNodes is the number of nodes on the tree the view stands for.
func (v *treeView) numNodes() int { return v.t.NumNodes() - v.cut }

// shrAt returns SHR(S, r) on the tree the view stands for; r must be on it.
func (v *treeView) shrAt(r graph.NodeID) int {
	shr := v.t.SHR(r)
	if v.cut == 0 {
		return shr
	}
	// Nothing above a node that stays has left, so the first mark met is the
	// depth of the deepest ancestor-or-self of the current merger on S→r.
	for src := v.t.Source(); r != src; r, _ = v.t.Parent(r) {
		if k := v.marks[r]; k != 0 {
			return shr - v.nm*int(k)
		}
	}
	return shr
}
