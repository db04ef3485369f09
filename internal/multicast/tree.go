// Package multicast provides the shared multicast-tree substrate used by
// both the SMRP protocol (internal/core) and the SPF-based baseline
// (internal/spfbase): a source-rooted tree overlaid on a network graph, with
// member bookkeeping, grafting/pruning, rerouting, per-member delay, tree
// cost, and structural validation.
//
// Terminology follows the paper: the tree is rooted at the multicast source
// S; "members" are receivers (which may be interior nodes); N_R is the
// number of members in the subtree rooted at R.
//
// Tree state is a set of columns indexed by storage slot: the parent, the
// children threaded through a first-child and a next-sibling column in
// ascending NodeID order, member and on-tree bitsets, a cached N_R column
// maintained incrementally along the O(depth) root path of every mutation,
// the SHR column derived from it, and the owner's baseline. Six int32
// columns make a slot 24 bytes, and a tree holds no per-node allocation.
//
// Storage comes in two backends behind one Tree type. The dense backend (New)
// exploits that graph.NodeID is a compact integer in 0..NumNodes()-1: the
// slot of node n is n. The sparse backend (NewSparse) hands slots out in
// touch order, found through an open-addressed index (slotIndex), so a
// tree's standing bytes are O(nodes ever touched) rather than O(topology) —
// the megascale/multigroup regime where thousands of trees each cover a tiny
// fraction of a million-node graph. A probe costs an out-of-line call where
// dense storage indexes directly; measured, sparse storage everywhere would
// cost paper-sized sessions a third of their throughput and dense storage
// everywhere would triple a large topology's heap, so both backends stay
// (DESIGN.md §17.2). Slots are never freed (a node that leaves keeps its
// slot as a tombstone), which is what preserves the zero-steady-state-
// allocation guarantee under membership churn in both backends. Every
// observable output — node/member/edge enumeration order, Cost's float
// summation order, epochs — is bit-identical between the two.
package multicast

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/graph"
)

// Sentinel errors returned by tree mutations.
var (
	// ErrNotOnTree is returned when an operation names a node that is not
	// part of the tree.
	ErrNotOnTree = errors.New("multicast: node not on tree")
	// ErrAlreadyOnTree is returned when a graft would re-add an on-tree node.
	ErrAlreadyOnTree = errors.New("multicast: node already on tree")
	// ErrNotMember is returned when a member operation names a non-member.
	ErrNotMember = errors.New("multicast: node is not a member")
)

// Tree is a source-rooted multicast tree overlaid on a Graph. The zero value
// is not usable; construct with New (dense storage) or NewSparse (compact
// touched-node storage).
//
// Tree is not safe for concurrent mutation.
type Tree struct {
	g      *graph.Graph
	source graph.NodeID

	// Slot-indexed state. Under dense storage the slot of node n is n
	// itself; under sparse storage slots are assigned in touch order and
	// translated through slots/nodeOf. parent holds NodeIDs as int32, read
	// through up. parent and nr are meaningful only for slots whose onTree
	// bit is set. Each node's children form a list in ascending NodeID order,
	// so accessors never re-sort: firstKid holds the slot of its first child
	// and nextSib, for a child, the slot of the next one; none is -1.
	// nextSib is meaningful only for a slot that is some node's child.
	parent   []int32
	firstKid []int32
	nextSib  []int32
	onTree   bitset
	members  bitset
	// nr caches N_R — the number of members in the subtree rooted at each
	// on-tree node — maintained incrementally: every membership or
	// attachment change walks the O(depth) root path applying ±δ instead
	// of recounting the tree.
	nr []int32
	// shr holds SHR(S, R) by Eq. 2's recurrence SHR(S,R) = SHR(S,R_u) + N_R,
	// repaired lazily: every mutation queues in dirty the top-level branches
	// (source children) whose values it may have changed, and RepairSHR
	// recomputes exactly those. A slot keeps its last value when its node
	// leaves the tree, so a regraft at the same value needs no write.
	shr   []int32
	dirty []graph.NodeID
	// baseline holds, plus one, the value the owner last stored for the node
	// with SetBaseline; 0 is none. core keeps Condition I's SHR^old_{S,Ru}
	// (§3.2.3) here.
	baseline []int32

	// Sparse backend: slots finds a touched node's slot, nodeOf is the
	// inverse. A nil slots table selects dense storage.
	slots  slotIndex
	nodeOf []graph.NodeID
	// scratch is a reusable buffer: the stack of subtree removal, and under
	// sparse storage the ascending-NodeID iteration order (slot order is
	// touch order, so ordered walks collect and sort into it).
	scratch []graph.NodeID

	nNodes   int
	nMembers int
	// epoch counts successful mutations; readers (e.g. core's charge for
	// deferred SHR maintenance) use it to tell whether the tree changed.
	epoch uint64
}

// New returns an empty dense-storage tree on g rooted at source. The source
// is on the tree from the start (as in PIM, the root's state always exists).
// Dense storage costs O(NumNodes) standing bytes per tree and is the right
// default below megascale.
func New(g *graph.Graph, source graph.NodeID) (*Tree, error) {
	return newTree(g, source, false)
}

// NewSparse returns an empty sparse-storage tree on g rooted at source:
// standing bytes are O(nodes ever touched) instead of O(NumNodes), at the
// price of an index probe per state access. Behaviour is bit-identical to the
// dense backend. Use it when many trees share a very large topology.
func NewSparse(g *graph.Graph, source graph.NodeID) (*Tree, error) {
	return newTree(g, source, true)
}

func newTree(g *graph.Graph, source graph.NodeID, sparse bool) (*Tree, error) {
	if source < 0 || int(source) >= g.NumNodes() {
		return nil, fmt.Errorf("multicast: source %d not in graph", source)
	}
	t := &Tree{g: g, source: source}
	if sparse {
		t.slots.resize(minSlotTable, nil)
		i := t.ensureSlot(source)
		t.parent[i] = int32(graph.Invalid)
		t.onTree.set(graph.NodeID(i))
	} else {
		n := g.NumNodes()
		t.parent = make([]int32, n)
		t.firstKid = make([]int32, n)
		for i := range t.firstKid {
			t.firstKid[i] = -1
		}
		t.nextSib = make([]int32, n)
		t.onTree = newBitset(n)
		t.members = newBitset(n)
		t.nr = make([]int32, n)
		t.shr = make([]int32, n)
		t.baseline = make([]int32, n)
		t.parent[source] = int32(graph.Invalid)
		t.onTree.set(source)
	}
	t.nNodes = 1
	return t, nil
}

// SparseStorage reports whether the tree uses the sparse (touched-node)
// backend.
func (t *Tree) SparseStorage() bool { return t.slots.tab != nil }

// idx returns the storage slot of n, or -1 when n has no slot yet. Under
// dense storage the slot is n itself, whatever n is: callers asked about an
// arbitrary NodeID guard with the bitsets, whose has() treats out-of-range
// slots as absent.
func (t *Tree) idx(n graph.NodeID) int32 {
	if t.slots.tab == nil {
		return int32(n)
	}
	return t.slots.find(n, t.nodeOf)
}

// nodeAt translates a slot back to its NodeID.
func (t *Tree) nodeAt(i int32) graph.NodeID {
	if t.slots.tab == nil {
		return graph.NodeID(i)
	}
	return t.nodeOf[i]
}

// ensureSlot returns the slot of n, a node of the graph, appending a fresh
// one under sparse storage when n has none. Dense storage covers the whole
// graph from the start, and a frozen graph never grows.
func (t *Tree) ensureSlot(n graph.NodeID) int32 {
	if t.slots.tab == nil {
		return int32(n)
	}
	if i := t.slots.find(n, t.nodeOf); i >= 0 {
		return i
	}
	i := int32(len(t.nodeOf))
	t.nodeOf = append(t.nodeOf, n)
	t.slots.add(t.nodeOf)
	t.parent = append(t.parent, int32(graph.Invalid))
	t.firstKid = append(t.firstKid, -1)
	t.nextSib = append(t.nextSib, -1)
	t.nr = append(t.nr, 0)
	t.shr = append(t.shr, 0)
	t.baseline = append(t.baseline, 0)
	t.onTree = t.onTree.grownCap(int(i) + 1)
	t.members = t.members.grownCap(int(i) + 1)
	return i
}

// up returns the recorded parent of slot i.
func (t *Tree) up(i int32) graph.NodeID { return graph.NodeID(t.parent[i]) }

// parentOf returns n's recorded parent, Invalid when n has no storage.
// Meaningful only for on-tree nodes (as with the raw parent vector).
func (t *Tree) parentOf(n graph.NodeID) graph.NodeID {
	i := t.idx(n)
	if i < 0 || int(i) >= len(t.parent) {
		return graph.Invalid
	}
	return t.up(i)
}

// appendNodeIDs converts the slot-bitset b to NodeIDs appended to dst in
// ascending NodeID order. Dense slots are NodeIDs already in ascending bit
// order; sparse slots are in touch order and get sorted.
func (t *Tree) appendNodeIDs(b bitset, dst []graph.NodeID) []graph.NodeID {
	if t.slots.tab == nil {
		return b.appendIDs(dst)
	}
	start := len(dst)
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			dst = append(dst, t.nodeOf[base+trailingZeros(w)])
			w &= w - 1
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Graph returns the underlying network graph.
func (t *Tree) Graph() *graph.Graph { return t.g }

// Source returns the tree's root.
func (t *Tree) Source() graph.NodeID { return t.source }

// Epoch returns a counter that increases on every successful mutation.
// Callers can compare epochs to tell whether the tree changed between two
// reads.
func (t *Tree) Epoch() uint64 { return t.epoch }

// OnTree reports whether n currently has tree state.
func (t *Tree) OnTree(n graph.NodeID) bool { return t.onTree.has(graph.NodeID(t.idx(n))) }

// IsMember reports whether n is a receiver of the session.
func (t *Tree) IsMember(n graph.NodeID) bool { return t.members.has(graph.NodeID(t.idx(n))) }

// Parent returns the upstream node of n (Invalid for the source) and whether
// n is on the tree.
func (t *Tree) Parent(n graph.NodeID) (graph.NodeID, bool) {
	if !t.OnTree(n) {
		return graph.Invalid, false
	}
	return t.up(t.idx(n)), true
}

// Children returns n's downstream neighbors in ascending order, in a fresh
// slice.
func (t *Tree) Children(n graph.NodeID) []graph.NodeID {
	return t.AppendChildren(make([]graph.NodeID, 0, t.NumChildren(n)), n)
}

// AppendChildren appends n's downstream neighbors to buf in ascending order:
// Children for a caller that keeps buf. A node off the tree has none.
func (t *Tree) AppendChildren(buf []graph.NodeID, n graph.NodeID) []graph.NodeID {
	if i := t.idx(n); i >= 0 && int(i) < len(t.firstKid) {
		return t.appendKids(buf, i)
	}
	return buf
}

// appendKids appends the children of slot i to buf, ascending.
func (t *Tree) appendKids(buf []graph.NodeID, i int32) []graph.NodeID {
	for k := t.firstKid[i]; k >= 0; k = t.nextSib[k] {
		buf = append(buf, t.nodeAt(k))
	}
	return buf
}

// NumChildren returns the number of n's downstream neighbors, 0 off the
// tree.
func (t *Tree) NumChildren(n graph.NodeID) (c int) {
	if i := t.idx(n); i >= 0 && int(i) < len(t.firstKid) {
		for k := t.firstKid[i]; k >= 0; k = t.nextSib[k] {
			c++
		}
	}
	return c
}

// Members returns the current receivers in ascending order.
func (t *Tree) Members() []graph.NodeID {
	return t.AppendMembers(make([]graph.NodeID, 0, t.nMembers))
}

// AppendMembers appends the current receivers to buf in ascending order: the
// form of Members for a caller that asks on every operation and keeps buf.
func (t *Tree) AppendMembers(buf []graph.NodeID) []graph.NodeID {
	return t.appendNodeIDs(t.members, buf)
}

// NumMembers returns the number of receivers.
func (t *Tree) NumMembers() int { return t.nMembers }

// Nodes returns all on-tree nodes in ascending order (the source is always
// included).
func (t *Tree) Nodes() []graph.NodeID {
	return t.AppendNodes(make([]graph.NodeID, 0, t.nNodes))
}

// AppendNodes appends all on-tree nodes to buf in ascending order: Nodes for
// a caller that keeps buf.
func (t *Tree) AppendNodes(buf []graph.NodeID) []graph.NodeID {
	return t.appendNodeIDs(t.onTree, buf)
}

// NumNodes returns the number of on-tree nodes.
func (t *Tree) NumNodes() int { return t.nNodes }

// Edges returns the tree's edges as canonical EdgeIDs in deterministic
// order.
func (t *Tree) Edges() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, t.nNodes-1)
	for wi, w := range t.onTree {
		base := wi << 6
		for w != 0 {
			i := int32(base + trailingZeros(w))
			w &= w - 1
			if p := t.up(i); p != graph.Invalid {
				out = append(out, graph.MakeEdgeID(t.nodeAt(i), p))
			}
		}
	}
	slices.SortFunc(out, func(a, b graph.EdgeID) int {
		if a.A != b.A {
			return int(a.A) - int(b.A)
		}
		return int(a.B) - int(b.B)
	})
	return out
}

// PathToSource returns the on-tree path from n up to the source (n first).
func (t *Tree) PathToSource(n graph.NodeID) (graph.Path, error) {
	return t.AppendPathToSource(nil, n)
}

// AppendPathToSource appends the on-tree path from n up to the source (n
// first) to buf and returns the extended slice, letting periodic callers
// (refresh timers fire once per member per interval for the whole run) reuse
// one scratch buffer instead of allocating a fresh path every tick. Callers
// that retain the result across calls must copy it.
func (t *Tree) AppendPathToSource(buf graph.Path, n graph.NodeID) (graph.Path, error) {
	if !t.OnTree(n) {
		return buf, fmt.Errorf("path to source from %d: %w", n, ErrNotOnTree)
	}
	start := len(buf)
	for cur := n; cur != graph.Invalid; cur = t.up(t.idx(cur)) {
		buf = append(buf, cur)
		if len(buf)-start > t.g.NumNodes() {
			return buf[:start], fmt.Errorf("path to source from %d: cycle in tree", n)
		}
	}
	return buf, nil
}

// TopAncestor returns the child of the source on n's root path — the root
// of the top-level branch containing n — or Invalid when n is the source or
// off the tree. A membership change at n can only perturb SHR values inside
// n's top-level branch.
func (t *Tree) TopAncestor(n graph.NodeID) graph.NodeID {
	if !t.OnTree(n) || n == t.source {
		return graph.Invalid
	}
	for {
		p := t.up(t.idx(n))
		if p == t.source {
			return n
		}
		n = p
	}
}

// DelayTo returns the total weight of the on-tree path from the source to n
// (the end-to-end delay D_{S,R} of the paper). The uplinks are summed from n
// upward, the order of PathToSource(n).Weight, so the float is that one's.
func (t *Tree) DelayTo(n graph.NodeID) (float64, error) {
	if !t.OnTree(n) {
		return 0, fmt.Errorf("path to source from %d: %w", n, ErrNotOnTree)
	}
	var total float64
	hops := 0
	for cur := n; ; hops++ {
		p := t.up(t.idx(cur))
		if p == graph.Invalid {
			return total, nil
		}
		if hops+1 >= t.g.NumNodes() { // more uplinks than a tree on this graph can have
			return 0, fmt.Errorf("path to source from %d: cycle in tree", n)
		}
		w, ok := t.g.EdgeWeight(cur, p)
		if !ok {
			return 0, fmt.Errorf("path weight: %d-%d is not an edge", cur, p)
		}
		total += w
		cur = p
	}
}

// Cost returns the sum of all tree-edge weights (the paper's Cost_T).
// Summation runs in ascending NodeID order in both storage backends, so the
// float result is bit-identical regardless of backend.
func (t *Tree) Cost() (float64, error) {
	t.scratch = t.appendNodeIDs(t.onTree, t.scratch[:0])
	var total float64
	for _, n := range t.scratch {
		p := t.up(t.idx(n))
		if p == graph.Invalid {
			continue
		}
		ew, ok := t.g.EdgeWeight(n, p)
		if !ok {
			return 0, fmt.Errorf("tree cost: %d-%d is not a graph edge", n, p)
		}
		total += ew
	}
	return total, nil
}

// Graft extends the tree along p, which must run from an on-tree node
// (p.First(), the merger) to the joining node (p.Last()); every intermediate
// node must be off-tree. The final node becomes a member when markMember is
// true. A single-node path (member already on tree, e.g. an on-tree router
// becoming a receiver) is allowed.
func (t *Tree) Graft(p graph.Path, markMember bool) error {
	if len(p) == 0 {
		return errors.New("multicast: graft of empty path")
	}
	if !t.OnTree(p.First()) {
		return fmt.Errorf("graft at %d: %w", p.First(), ErrNotOnTree)
	}
	if err := p.Validate(t.g); err != nil {
		return fmt.Errorf("graft: %w", err)
	}
	for _, n := range p[1:] {
		if t.OnTree(n) {
			return fmt.Errorf("graft through %d: %w", n, ErrAlreadyOnTree)
		}
	}
	if !p.IsSimple() {
		return errors.New("multicast: graft path is not simple")
	}
	changed := len(p) > 1
	for i := 1; i < len(p); i++ {
		t.attach(p[i], p[i-1])
	}
	var delta int32
	if last := t.idx(p.Last()); !t.members.has(graph.NodeID(last)) && markMember {
		t.members.set(graph.NodeID(last))
		t.nMembers++
		delta, changed = 1, true
	}
	if changed {
		// A relay-only graft bumps by zero: the walk still marks the branch
		// the new chain hangs in, whose fresh nodes need their SHR.
		t.bumpNR(p.Last(), delta)
		t.epoch++
	}
	return nil
}

// bumpNR applies δ to the cached N_R of every node on the root path
// starting at from (inclusive) — the O(depth) incremental maintenance of
// Eq. 2's N_R terms — and marks the top-level branch the walk came up
// through for RepairSHR.
func (t *Tree) bumpNR(from graph.NodeID, delta int32) {
	top := graph.Invalid
	for cur := from; cur != graph.Invalid; {
		i := t.idx(cur)
		t.nr[i] += delta
		if t.up(i) == t.source {
			top = cur
		}
		cur = t.up(i)
	}
	t.markSHR(top)
}

// markSHR queues the branch rooted at r for RepairSHR; Invalid queues
// nothing.
func (t *Tree) markSHR(r graph.NodeID) {
	if r != graph.Invalid && !slices.Contains(t.dirty, r) {
		t.dirty = append(t.dirty, r)
	}
}

// RepairSHR brings the SHR column up to date: it recomputes, top down, every
// branch a mutation marked since the last repair, in marking order, and
// returns the writes that changed a value — the per-event update messages
// of §3.3.2's eager maintenance. A marked branch that has left the tree is
// skipped.
func (t *Tree) RepairSHR() int {
	writes := 0
	for _, r := range t.dirty {
		if !t.OnTree(r) {
			continue
		}
		stack := append(t.scratch[:0], r)
		for len(stack) > 0 {
			i := t.idx(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if want := t.shr[t.idx(t.up(i))] + t.nr[i]; t.shr[i] != want {
				t.shr[i] = want
				writes++
			}
			stack = t.appendKids(stack, i)
		}
		t.scratch = stack
	}
	t.dirty = t.dirty[:0]
	return writes
}

// SHR returns SHR(S, n) for the on-tree node n (0 for the source), repairing
// the column first when a mutation has left it stale.
func (t *Tree) SHR(n graph.NodeID) int {
	if len(t.dirty) > 0 {
		t.RepairSHR()
	}
	return int(t.shr[t.idx(n)])
}

// Baseline returns the value SetBaseline last stored for n, and false when
// none is stored (never set, or cleared since).
func (t *Tree) Baseline(n graph.NodeID) (int, bool) {
	i := t.idx(n)
	if i < 0 || int(i) >= len(t.baseline) || t.baseline[i] == 0 {
		return 0, false
	}
	return int(t.baseline[i] - 1), true
}

// SetBaseline stores v (at least 0) for n, giving n storage if it has none.
func (t *Tree) SetBaseline(n graph.NodeID, v int) {
	t.baseline[t.ensureSlot(n)] = int32(v + 1)
}

// ClearBaseline removes the value stored for n, if any.
func (t *Tree) ClearBaseline(n graph.NodeID) {
	if i := t.idx(n); i >= 0 && int(i) < len(t.baseline) {
		t.baseline[i] = 0
	}
}

// attach links the off-tree node child under on-tree node par, inserting it
// into par's ascending children list.
func (t *Tree) attach(child, par graph.NodeID) {
	i := t.ensureSlot(child)
	t.link(i, par)
	t.onTree.set(graph.NodeID(i))
	t.nr[i] = 0
	t.nNodes++
}

// link hangs slot i under par, in par's children list at its NodeID's place,
// without touching node counts: attach's hook, and Reroute's move of an
// existing subtree root.
func (t *Tree) link(i int32, par graph.NodeID) {
	t.parent[i] = int32(par)
	n := t.nodeAt(i)
	at := &t.firstKid[t.idx(par)]
	for *at >= 0 && t.nodeAt(*at) < n {
		at = &t.nextSib[*at]
	}
	t.nextSib[i], *at = *at, i
}

// unlink takes slot i out of its parent's children list, which holds it.
func (t *Tree) unlink(i int32) {
	at := &t.firstKid[t.idx(t.up(i))]
	for *at != i {
		at = &t.nextSib[*at]
	}
	*at = t.nextSib[i]
	t.parent[i] = int32(graph.Invalid)
}

// detach unlinks child, a node below the source, from its parent and drops
// it from the tree without pruning. Under sparse storage the child keeps its
// slot for reuse.
func (t *Tree) detach(child graph.NodeID) {
	i := t.idx(child)
	t.unlink(i)
	t.onTree.clear(graph.NodeID(i))
	t.nr[i] = 0
	t.nNodes--
}

// Leave removes member m from the session and prunes the now-unneeded chain
// of relays toward the source, mirroring the paper's Leave_Req processing:
// state is cleared hop by hop until a node with remaining downstream members
// (or the source, or another member) is reached.
func (t *Tree) Leave(m graph.NodeID) error {
	i := t.idx(m)
	if !t.members.has(graph.NodeID(i)) {
		return fmt.Errorf("leave %d: %w", m, ErrNotMember)
	}
	t.members.clear(graph.NodeID(i))
	t.nMembers--
	t.bumpNR(m, -1)
	t.pruneUpward(m, nil)
	t.epoch++
	return nil
}

// pruneUpward removes n and its ancestors while they are leaf relays
// (no children, not a member, not the source), appending them to *removed
// when the caller wants them. Pruned nodes carry N_R = 0, so removal never
// perturbs ancestor counts.
func (t *Tree) pruneUpward(n graph.NodeID, removed *[]graph.NodeID) {
	for n != graph.Invalid && n != t.source {
		i := t.idx(n)
		if !t.onTree.has(graph.NodeID(i)) || t.firstKid[i] >= 0 ||
			t.members.has(graph.NodeID(i)) {
			return
		}
		par := t.up(i)
		t.detach(n)
		if removed != nil {
			*removed = append(*removed, n)
		}
		n = par
	}
}

// SubtreeNodes returns all nodes in the subtree rooted at r (including r),
// in ascending order.
func (t *Tree) SubtreeNodes(r graph.NodeID) ([]graph.NodeID, error) {
	if !t.OnTree(r) {
		return nil, fmt.Errorf("subtree of %d: %w", r, ErrNotOnTree)
	}
	out := t.AppendSubtree(nil, r)
	slices.Sort(out)
	return out, nil
}

// AppendSubtree appends the nodes of the subtree rooted at the on-tree node r
// to buf, r first and every node after its parent, in no further order:
// SubtreeNodes without the sort, for a caller that keeps buf. The appended
// stretch doubles as the walk's queue, so nothing else is allocated.
func (t *Tree) AppendSubtree(buf []graph.NodeID, r graph.NodeID) []graph.NodeID {
	start := len(buf)
	buf = append(buf, r)
	for i := start; i < len(buf); i++ {
		buf = t.appendKids(buf, t.idx(buf[i]))
	}
	return buf
}

// MemberCount returns N_R, the number of members in the subtree rooted at
// r. The count is served from the incrementally maintained per-node cache
// in O(1), where the map-backed tree re-walked (and re-sorted) the subtree.
func (t *Tree) MemberCount(r graph.NodeID) (int, error) {
	i := t.idx(r)
	if !t.onTree.has(graph.NodeID(i)) {
		return 0, fmt.Errorf("subtree of %d: %w", r, ErrNotOnTree)
	}
	return int(t.nr[i]), nil
}

// Reroute moves member m (together with its whole subtree) onto newPath,
// which must run from an on-tree merger (newPath.First()) to m
// (newPath.Last()); intermediates must be off-tree, and the merger must not
// lie inside m's own subtree (that would create a cycle). The old upstream
// chain is pruned as in Leave. This implements the switch step of the
// paper's tree-reshaping procedure (§3.2.3).
func (t *Tree) Reroute(m graph.NodeID, newPath graph.Path) error {
	if !t.OnTree(m) {
		return fmt.Errorf("reroute %d: %w", m, ErrNotOnTree)
	}
	if len(newPath) < 2 {
		return errors.New("multicast: reroute path must have at least one edge")
	}
	if newPath.Last() != m {
		return fmt.Errorf("reroute: path ends at %d, not member %d", newPath.Last(), m)
	}
	if err := newPath.Validate(t.g); err != nil {
		return fmt.Errorf("reroute: %w", err)
	}
	if !newPath.IsSimple() {
		return errors.New("multicast: reroute path is not simple")
	}
	merger := newPath.First()
	if !t.OnTree(merger) {
		return fmt.Errorf("reroute merger %d: %w", merger, ErrNotOnTree)
	}
	// The merger lies inside m's subtree exactly when m is an ancestor of
	// it — an O(depth) root-path walk instead of materializing the subtree.
	for cur := merger; cur != graph.Invalid; cur = t.up(t.idx(cur)) {
		if cur == m {
			return fmt.Errorf("reroute: merger %d is inside %d's subtree", merger, m)
		}
	}
	for _, n := range newPath[1 : len(newPath)-1] {
		if t.OnTree(n) {
			return fmt.Errorf("reroute through %d: %w", n, ErrAlreadyOnTree)
		}
	}
	mi := t.idx(m)
	oldParent := t.up(mi)
	sub := t.nr[mi] // members moving with m's subtree
	// The move dirties the branch m leaves and the one it joins, marked in
	// that order. Either is m's own when m hangs from the source; left from
	// there, m's subtree is repaired once from its new parent's value as it
	// stands and again inside the branch it joins, and both repairs count.
	t.markSHR(t.TopAncestor(m))
	if oldParent != graph.Invalid {
		t.unlink(mi)
		t.bumpNR(oldParent, -sub)
	}
	// Attach the new chain from the merger down to m.
	for i := 1; i < len(newPath); i++ {
		if newPath[i] == m {
			t.link(mi, newPath[i-1])
		} else {
			t.attach(newPath[i], newPath[i-1])
		}
	}
	// The moved members now count along the new root path (the fresh chain
	// nodes were attached with N_R = 0 and pick up the subtree here).
	t.bumpNR(t.up(t.idx(m)), sub)
	t.markSHR(t.TopAncestor(m))
	t.pruneUpward(oldParent, nil)
	t.epoch++
	return nil
}

// DetachSubtree removes r and every node below it (members included) from
// the tree, but leaves the relay chain above r in place even if it no longer
// serves any member. Failure recovery uses this to flush dead state while
// keeping surviving relays (whose soft state has not yet expired) available
// as local-detour targets; PruneFrom, given r's parent, reclaims them
// afterwards. The members removed with the subtree are appended to flushed,
// in no particular order.
func (t *Tree) DetachSubtree(r graph.NodeID, flushed []graph.NodeID) ([]graph.NodeID, error) {
	if !t.OnTree(r) {
		return flushed, fmt.Errorf("detach subtree %d: %w", r, ErrNotOnTree)
	}
	if r == t.source {
		return flushed, errors.New("multicast: cannot detach the source's subtree")
	}
	// Unlink r, deduct its member count from the surviving root path, and
	// clear all state below it.
	ri := t.idx(r)
	oldParent := t.up(ri)
	t.unlink(ri)
	t.bumpNR(oldParent, -t.nr[ri])
	stack := append(t.scratch[:0], r)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i := t.idx(n)
		stack = t.appendKids(stack, i)
		t.firstKid[i] = -1
		t.onTree.clear(graph.NodeID(i))
		t.parent[i] = int32(graph.Invalid)
		t.nr[i] = 0
		t.nNodes--
		if t.members.has(graph.NodeID(i)) {
			t.members.clear(graph.NodeID(i))
			t.nMembers--
			flushed = append(flushed, n)
		}
	}
	t.scratch = stack
	t.epoch++
	return flushed, nil
}

// PruneStale removes every relay chain that serves no member (childless,
// non-member, non-source nodes, applied to fixpoint), modeling soft-state
// expiry of branches left behind by recovery. It returns the nodes removed,
// ascending. It looks at every on-tree node; a caller that knows where
// subtrees were detached prunes with PruneFrom instead.
func (t *Tree) PruneStale() []graph.NodeID {
	return t.PruneFrom(t.Nodes())
}

// PruneFrom removes, from each hint upward, the chain of relays that serves
// no member, stopping at a node with a child, a member or the source; a hint
// that is off the tree or still in use is skipped. Relays go stale only where
// DetachSubtree took their last child away, so given the parent of every
// subtree detached since the tree was last pruned it removes exactly what
// PruneStale would, in time proportional to the hints and the nodes removed.
// It returns the nodes removed, ascending.
func (t *Tree) PruneFrom(hints []graph.NodeID) []graph.NodeID {
	var removed []graph.NodeID
	for _, n := range hints {
		t.pruneUpward(n, &removed)
	}
	if len(removed) > 0 {
		t.epoch++
		slices.Sort(removed)
	}
	return removed
}

// Clone returns a deep copy of the tree sharing the same graph (and the same
// storage backend).
func (t *Tree) Clone() *Tree {
	return &Tree{
		g:        t.g,
		source:   t.source,
		parent:   slices.Clone(t.parent),
		firstKid: slices.Clone(t.firstKid),
		nextSib:  slices.Clone(t.nextSib),
		onTree:   t.onTree.clone(),
		members:  t.members.clone(),
		nr:       slices.Clone(t.nr),
		shr:      slices.Clone(t.shr),
		dirty:    slices.Clone(t.dirty),
		baseline: slices.Clone(t.baseline),
		slots:    slotIndex{tab: slices.Clone(t.slots.tab), shift: t.slots.shift},
		nodeOf:   slices.Clone(t.nodeOf),
		nNodes:   t.nNodes,
		nMembers: t.nMembers,
		epoch:    t.epoch,
	}
}

// Validate checks the tree's structural invariants: every non-source node
// has a parent reachable from the source, parent/children lists agree, every
// tree edge exists in the graph, members are on the tree, the cached N_R
// column matches a from-scratch recount, and the SHR column obeys Eq. 2 in
// every branch no mutation has marked since the last repair. It returns the
// first violation found.
func (t *Tree) Validate() error {
	if !t.OnTree(t.source) {
		return errors.New("multicast: source missing from tree")
	}
	if t.up(t.idx(t.source)) != graph.Invalid {
		return errors.New("multicast: source has a parent")
	}
	// children↔parent agreement and edge existence.
	nodes := t.Nodes()
	if len(nodes) != t.nNodes {
		return fmt.Errorf("multicast: node count %d does not match on-tree set %d", t.nNodes, len(nodes))
	}
	for _, n := range nodes {
		p := t.up(t.idx(n))
		if p == graph.Invalid {
			if n != t.source {
				return fmt.Errorf("multicast: node %d has no parent but is not the source", n)
			}
			continue
		}
		if !t.g.HasEdge(n, p) {
			return fmt.Errorf("multicast: tree link %d-%d is not a graph edge", n, p)
		}
		if !t.OnTree(p) {
			return fmt.Errorf("multicast: parent %d of %d is off the tree", p, n)
		}
	}
	// Each children list ascends strictly, so it ends, and names on-tree
	// nodes whose parent is its owner; so no node is listed twice, and
	// together the lists name every node below the source.
	listed := 0
	for _, p := range nodes {
		prev := graph.Invalid
		for k := t.firstKid[t.idx(p)]; k >= 0; k = t.nextSib[k] {
			c := t.nodeAt(k)
			if c <= prev {
				return fmt.Errorf("multicast: children of %d not in ascending order", p)
			}
			if !t.onTree.has(graph.NodeID(k)) || t.up(k) != p {
				return fmt.Errorf("multicast: child %d of %d has parent %v", c, p, t.parentOf(c))
			}
			prev = c
			listed++
		}
	}
	if listed != t.nNodes-1 {
		return fmt.Errorf("multicast: %d children listed for %d nodes below the source", listed, t.nNodes-1)
	}
	// Reachability (no cycles, no orphan islands) plus a from-scratch N_R
	// recount checked against the incremental cache. Scratch state here is
	// NodeID-indexed (not slot-indexed) so the walk is backend-agnostic.
	limit := t.g.NumNodes()
	reached := 0
	members := 0
	stack := []graph.NodeID{t.source}
	seen := newBitset(limit)
	seen.set(t.source)
	counts := make([]int32, limit)
	order := make([]graph.NodeID, 0, t.nNodes)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reached++
		order = append(order, n)
		if t.IsMember(n) {
			counts[n] = 1
			members++
		}
		for i := t.firstKid[t.idx(n)]; i >= 0; i = t.nextSib[i] {
			k := t.nodeAt(i)
			if seen.has(k) {
				return fmt.Errorf("multicast: node %d reached twice (cycle)", k)
			}
			seen.set(k)
			stack = append(stack, k)
		}
	}
	if reached != t.nNodes {
		return fmt.Errorf("multicast: %d nodes on tree but only %d reachable from source", t.nNodes, reached)
	}
	if members != t.nMembers {
		return fmt.Errorf("multicast: member count %d does not match member set %d", t.nMembers, members)
	}
	for i := len(order) - 1; i >= 0; i-- { // reverse pre-order = bottom-up
		n := order[i]
		if counts[n] != t.nr[t.idx(n)] {
			return fmt.Errorf("multicast: cached N_%d = %d, recount = %d", n, t.nr[t.idx(n)], counts[n])
		}
		if p := t.up(t.idx(n)); p != graph.Invalid {
			counts[p] += counts[n]
		}
	}
	// Pre-order visits a parent before its children; seen is reused to flag
	// the nodes of marked branches, whose SHR is stale until RepairSHR.
	for _, n := range order[1:] {
		i := t.idx(n)
		p := t.up(i)
		if p == t.source && slices.Contains(t.dirty, n) || !seen.has(p) {
			seen.clear(n)
			continue
		}
		if want := t.shr[t.idx(p)] + t.nr[i]; t.shr[i] != want {
			return fmt.Errorf("multicast: SHR_%d = %d, Eq. 2 gives %d", n, t.shr[i], want)
		}
	}
	for _, m := range t.Members() {
		if !t.OnTree(m) {
			return fmt.Errorf("multicast: member %d not on tree", m)
		}
	}
	return nil
}
