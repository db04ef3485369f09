package core

import (
	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// shrVals is the session's SHR table. It mirrors the tree's storage backend:
// over a dense tree the table is a NodeID-indexed []int32 (the hot path —
// candidate enumeration, Condition-I checks — reads SHR with a single
// bounds-checked load); over a sparse tree it is a map keyed by NodeID, so a
// session's standing SHR state is O(nodes ever touched) instead of
// O(topology). Entries are meaningful only for on-tree nodes; the source's
// entry is always 0.
type shrVals struct {
	dense  []int32
	sparse map[graph.NodeID]int32
}

// at returns SHR(S, n). n must be on the tree the table was computed for.
func (v shrVals) at(n graph.NodeID) int {
	if v.dense != nil {
		return int(v.dense[n])
	}
	return int(v.sparse[n])
}

// get reads the entry for n; absent sparse entries read as 0 (same as a
// never-written dense slot).
func (v shrVals) get(n graph.NodeID) int32 {
	if v.dense != nil {
		return v.dense[n]
	}
	return v.sparse[n]
}

// set writes the entry for n. The backend must have been prepared (see
// computeSHRInto) for the tree the value belongs to.
func (v shrVals) set(n graph.NodeID, x int32) {
	if v.dense != nil {
		v.dense[n] = x
		return
	}
	v.sparse[n] = x
}

// footprint is the table's deterministic standing-byte accounting: fixed
// per-entry constants (4 bytes per dense slot; key + value + bucket overhead
// per sparse entry), never live heap.
func (v shrVals) footprint() int64 {
	if v.sparse != nil {
		return int64(len(v.sparse)) * bytesPerSHRMapEntry
	}
	return int64(len(v.dense)) * bytesPerSHRDenseEntry
}

// ComputeSHR returns SHR(S,R) for every on-tree node R of t, where
//
//	SHR(S,R) = Σ N_{R'}  over on-tree nodes R' on the path S→R, excluding S
//	         = SHR(S, R_u) + N_R                             (Eq. 2)
//
// and N_R is the number of members in the subtree rooted at R. SHR(S,S) = 0.
//
// The value measures how many member paths share the links from S down to R:
// the smaller SHR(S,R), the more attractive R is as a merger point for a new
// member, because a failure above R disconnects fewer receivers.
//
// N_R values come from the tree's incrementally maintained cache, so the
// computation is a single top-down pass with no intermediate map of N_R.
// This is the exported, map-shaped convenience API; the session's hot path
// uses the backend-matched shrTable below instead.
func ComputeSHR(t *multicast.Tree) map[graph.NodeID]int {
	shr := make(map[graph.NodeID]int, t.NumNodes())
	src := t.Source()
	shr[src] = 0
	// Top-down propagation along the recurrence SHR(R) = SHR(R_u) + N_R.
	stack := []graph.NodeID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		base := shr[n]
		for _, k := range t.ChildList(n) {
			nr, _ := t.MemberCount(k)
			shr[k] = base + nr
			stack = append(stack, k)
		}
	}
	return shr
}

// computeSHRInto fills vals with SHR for every on-tree node of t, reusing
// the provided buffers (grown as needed) and matching the value backend to
// the tree's storage backend. It returns the (possibly reallocated) buffers
// so callers can keep them warm across calls.
func computeSHRInto(t *multicast.Tree, vals shrVals, stack []graph.NodeID) (shrVals, []graph.NodeID) {
	if t.SparseStorage() {
		if vals.sparse == nil {
			vals.sparse = make(map[graph.NodeID]int32, t.NumNodes())
		}
		vals.dense = nil
	} else {
		n := t.Graph().NumNodes()
		if cap(vals.dense) < n {
			vals.dense = make([]int32, n)
		}
		vals.dense = vals.dense[:n]
		vals.sparse = nil
	}
	src := t.Source()
	vals.set(src, 0)
	stack = append(stack[:0], src)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		base := vals.get(u)
		for _, k := range t.ChildList(u) {
			nr, _ := t.MemberCount(k)
			vals.set(k, base+int32(nr))
			stack = append(stack, k)
		}
	}
	return vals, stack
}

// shrTable maintains a session's SHR values incrementally: after a
// membership change at member m, only the nodes inside m's top-level branch
// (the subtree rooted at the source's child on m's root path — the dirty
// subtree of Eq. 2's recurrence) can change, so refresh recomputes exactly
// that region in O(depth + |dirty subtree|) and counts the per-node writes
// that actually changed a value in Stats.SHRUpdates: the per-event update
// messages §3.3.2 worries about.
//
// §3.3.2's alternative, deferred maintenance, builds the same trees and pays
// in recomputes instead: it rebuilds the table when path selection reads it
// on a tree that has mutated since the last read. table charges that cost to
// Stats.SHRComputes without running it, so every session reports both.
type shrTable struct {
	stats *Stats

	vals  shrVals
	stack []graph.NodeID

	// epoch/valid remember the tree epoch of the last read, for the
	// deferred-maintenance charge.
	epoch uint64
	valid bool
}

func newSHRTable(stats *Stats) *shrTable {
	return &shrTable{stats: stats}
}

// init installs the table for a fresh session tree. The empty tree carries
// only the source (SHR(S,S) = 0, a constant that needs no update message),
// so nothing is counted.
func (s *shrTable) init(t *multicast.Tree) {
	s.vals, s.stack = computeSHRInto(t, s.vals, s.stack)
}

// refresh repairs the table after a tree mutation whose dirty subtrees are
// rooted at the given nodes (typically Tree.TopAncestor of the mutated
// member; Invalid and off-tree roots are skipped, as is the source, whose
// SHR is constant).
func (s *shrTable) refresh(t *multicast.Tree, dirtyRoots ...graph.NodeID) {
	if !t.SparseStorage() {
		n := t.Graph().NumNodes()
		if cap(s.vals.dense) < n {
			// The graph grew since init: fall back to a full rebuild.
			s.vals, s.stack = computeSHRInto(t, s.vals, s.stack)
			return
		}
		s.vals.dense = s.vals.dense[:n]
	}
	s.vals.set(t.Source(), 0)
	writes := 0
	for i, root := range dirtyRoots {
		if root == graph.Invalid || root == t.Source() || !t.OnTree(root) {
			continue
		}
		if contains(dirtyRoots[:i], root) {
			continue // deduplicate repeated roots
		}
		// Top-down repair of the dirty subtree: parents are finalized
		// before their children are pushed, so vals[parent] is always
		// current when a node is visited.
		s.stack = append(s.stack[:0], root)
		for len(s.stack) > 0 {
			u := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			p, _ := t.Parent(u)
			nr, _ := t.MemberCount(u)
			want := s.vals.get(p) + int32(nr)
			if s.vals.get(u) != want {
				s.vals.set(u, want)
				writes++
			}
			s.stack = append(s.stack, t.ChildList(u)...)
		}
	}
	s.stats.SHRUpdates += writes
}

// table returns the current SHR table for t. The first read of a tree epoch
// is where deferred maintenance would rebuild the table, so it charges
// t.NumNodes() to Stats.SHRComputes.
func (s *shrTable) table(t *multicast.Tree) shrVals {
	if !s.valid || s.epoch != t.Epoch() {
		s.stats.SHRComputes += t.NumNodes()
		s.epoch, s.valid = t.Epoch(), true
	}
	return s.vals
}

// at returns SHR(S, n) for on-tree node n.
func (s *shrTable) at(t *multicast.Tree, n graph.NodeID) int {
	return s.table(t).at(n)
}

// contains reports whether roots holds r (tiny linear scan; dirty-root
// lists have at most a handful of entries).
func contains(roots []graph.NodeID, r graph.NodeID) bool {
	for _, x := range roots {
		if x == r {
			return true
		}
	}
	return false
}
