package core

import (
	"slices"

	"smrp/internal/graph"
)

// MemberState is one member's view in a Snapshot: its current end-to-end
// delay on the tree and the SHR of the node it attaches through (its parent;
// 0 when the member is the source or a source child).
type MemberState struct {
	Node  graph.NodeID `json:"node"`
	Delay float64      `json:"delay"`
	SHR   int          `json:"shr"`
}

// Snapshot is a self-contained, value-typed copy of a session's observable
// state: membership, parked members, per-member delay/SHR, tree shape
// counters, and the work statistics. It shares no memory with the session,
// so a snapshot taken inside the session's owning goroutine may be handed to
// other goroutines (the serving layer's SSE coalescing and GET handlers rely
// on exactly this).
type Snapshot struct {
	Source graph.NodeID `json:"source"`
	// Members lists current receivers ascending by node ID.
	Members []MemberState `json:"members"`
	// Parked lists members degraded out of the tree (partitioned), ascending.
	Parked []graph.NodeID `json:"parked"`
	// OnTreeNodes counts all tree nodes (members + relays + source).
	OnTreeNodes int `json:"on_tree_nodes"`
	// TreeCost is the total weight of the tree's edges.
	TreeCost float64 `json:"tree_cost"`
	// Degraded reports whether the accumulated failure mask is non-empty.
	Degraded bool `json:"degraded"`
	// Stats is a copy of the session's work counters.
	Stats Stats `json:"stats"`
}

// Snapshot captures the session's observable state as a value. It must be
// called from the goroutine that owns the session (like every other method);
// the returned value is independent of the session and safe to share.
func (s *Session) Snapshot() Snapshot {
	snap := Snapshot{
		Source:      s.tree.Source(),
		OnTreeNodes: s.tree.NumNodes(),
		Parked:      s.Parked(),
		Degraded:    !s.failed.IsEmpty(),
		Stats:       s.stats,
	}
	if cost, err := s.tree.Cost(); err == nil {
		snap.TreeCost = cost
	}
	members := s.tree.Members()
	slices.Sort(members)
	snap.Members = make([]MemberState, 0, len(members))
	for _, m := range members {
		ms := MemberState{Node: m}
		if d, err := s.tree.DelayTo(m); err == nil {
			ms.Delay = d
		}
		if p, ok := s.tree.Parent(m); ok && p != graph.Invalid {
			ms.SHR = s.shrAt(p)
		}
		snap.Members = append(snap.Members, ms)
	}
	return snap
}
