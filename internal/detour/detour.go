// Package detour implements a precomputed alternate-path recovery baseline
// after Bhosle & Gonzalez ("Algorithms for single link failure recovery and
// related problems", arXiv:0810.3438): every on-tree node precomputes, at the
// moment it is grafted, the best detour it would use if its tree parent
// failed — a path around the parent to a survivor outside the parent's
// subtree. Recovery is then a table lookup plus a graft, shifting the
// settled-node work from the failure instant (SMRP's reactive search) to
// join/graft time.
//
// The table is maintained through the core.RecoveryStrategy seam: the session
// re-invokes Precompute after every tree mutation, and the refresh is
// memoized against Tree.Epoch so a quiet tree costs one compare. On a
// mutation, entries whose node left the tree or whose parent changed are
// recomputed; the rest are kept as precomputed (possibly no-longer-optimal)
// answers, exactly the staleness the scheme trades for O(1) failure response.
// Entries only cover the designed single-failure case — the member's own
// parent (or the parent link) failing; deeper-ancestor or overlapping
// failures invalidate entries against the accumulated mask and fall back to
// the live search, counted in Stats.StrategyFallbacks.
package detour

import (
	"fmt"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// Deterministic per-element sizes of the detour table, in the style of
// graph.MemoryFootprint: fixed constants, never live heap measurement.
const (
	bytesPerEntry    = 48 // key NodeID(8) + parent NodeID(8) + dist float64(8) + path slice header(24)
	bytesPerPathNode = 8  // NodeID per stored path element
)

// entry is one node's precomputed answer to "my parent just failed": the
// parent it was computed against (for invalidation), the detour path
// node→…→survivor, and its weight. A nil path records that no detour existed
// when the node was grafted (the parent is an articulation point for it).
type entry struct {
	parent graph.NodeID
	path   graph.Path
	dist   float64
}

// Strategy is the precomputed-detour recovery strategy. Create with New,
// then install via core.Config.Strategy; one instance serves one session.
type Strategy struct {
	s     *core.Session
	table map[graph.NodeID]entry
	epoch uint64
	ready bool

	precompSettled int
}

// New returns a precomputed-detour strategy with an empty table; the table
// fills as members join the bound session.
func New() *Strategy {
	return &Strategy{table: make(map[graph.NodeID]entry)}
}

// Precompute implements core.RecoveryStrategy: bind the session and bring
// the detour table up to date with the current tree. Memoized against
// Tree.Epoch, so the post-mutation notification is O(1) when nothing
// actually changed.
func (st *Strategy) Precompute(s *core.Session) error {
	if st.s != s {
		st.s = s
		st.table = make(map[graph.NodeID]entry)
		st.ready = false
	}
	t := s.Tree()
	if st.ready && st.epoch == t.Epoch() {
		return nil
	}

	// Invalidate entries the mutation made stale: node left the tree, or is
	// now attached through a different parent. (Deleting while ranging is
	// safe in Go, and deletion order cannot affect the resulting table.)
	for n, e := range st.table {
		p, ok := t.Parent(n)
		if !ok || p != e.parent {
			delete(st.table, n)
		}
	}

	// Compute entries for newly covered nodes in ascending ID order (the
	// order only affects settled-work attribution, and ascending keeps it
	// deterministic). The detour for node v against parent p must end
	// outside p's subtree: when p dies, everything below it is cut off, so
	// a survivor inside would be no survivor at all.
	g := s.Graph()
	src := t.Source()
	for _, v := range t.Nodes() {
		if v == src {
			continue
		}
		if _, ok := st.table[v]; ok {
			continue
		}
		p, ok := t.Parent(v)
		if !ok || p == graph.Invalid {
			continue
		}
		sub, err := t.SubtreeNodes(p)
		if err != nil {
			return fmt.Errorf("detour: subtree of %d: %w", p, err)
		}
		inSub := make(map[graph.NodeID]bool, len(sub))
		for _, n := range sub {
			inSub[n] = true
		}
		mask := graph.NewMaskWithCapacity(g.NumNodes())
		mask.BlockNode(p)
		accept := func(n graph.NodeID) bool {
			return t.OnTree(n) && !inSub[n]
		}
		node, path, d, settled := g.NearestOfCounted(v, mask, accept)
		st.precompSettled += settled
		if node == graph.Invalid {
			// Negative entry: no detour existed at graft time. Kept (and
			// re-examined only when v's parent changes) so refreshes don't
			// re-run a hopeless search after every mutation.
			st.table[v] = entry{parent: p}
			continue
		}
		st.table[v] = entry{parent: p, path: path, dist: d}
	}
	st.epoch = t.Epoch()
	st.ready = true
	return nil
}

// Propose implements core.RecoveryStrategy: it offers m's precomputed
// detour, if it has one. The session checks it against the accumulated
// failure mask and the post-flush tree — a stale entry (target dead, path
// crossing a later failure) degrades to the live fallback search rather
// than a wrong graft — and its fixpoint passes give interior members of a
// cut subtree more chances as the subtree's root regrafts and their stored
// paths regain live on-tree nodes.
func (st *Strategy) Propose(_ []failure.Failure, m graph.NodeID, offer func(graph.Path) bool) {
	if p := st.table[m].path; p != nil {
		offer(p)
	}
}

// StateBytes implements core.RecoveryStrategy: the table's entries at fixed
// per-element sizes.
func (st *Strategy) StateBytes() int64 {
	var b int64
	for _, e := range st.table {
		b += bytesPerEntry + bytesPerPathNode*int64(len(e.path))
	}
	return b
}

// PrecomputeSettled returns the nodes settled building and maintaining the
// detour table — the strategy's precompute-time share of the settled-node
// work the strategies study reports (the counterpart of Stats.HealSettled,
// which stays near zero here by design).
func (st *Strategy) PrecomputeSettled() int { return st.precompSettled }
