package core

import (
	"smrp/internal/graph"
	"smrp/internal/multicast"
)

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
// This is the from-scratch, map-shaped reference: one top-down pass over the
// tree's cached N_R. Sessions read the tree's own SHR column (Tree.SHR)
// instead.
func ComputeSHR(t *multicast.Tree) map[graph.NodeID]int {
	shr := make(map[graph.NodeID]int, t.NumNodes())
	src := t.Source()
	shr[src] = 0
	// Top-down propagation along the recurrence SHR(R) = SHR(R_u) + N_R.
	stack := []graph.NodeID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		base, kids := shr[n], len(stack)
		stack = t.AppendChildren(stack, n)
		for _, k := range stack[kids:] {
			nr, _ := t.MemberCount(k)
			shr[k] = base + nr
		}
	}
	return shr
}

// repairSHR brings the tree's SHR column up to date after a mutation and
// counts the writes that changed a value in Stats.SHRUpdates: the per-event
// update messages of §3.3.2's eager maintenance. Every operation that
// mutates the tree calls it before it returns, so the writes of one
// operation are never netted against the next one's.
func (s *Session) repairSHR() { s.stats.SHRUpdates += s.tree.RepairSHR() }

// shrTree returns the session's tree for reading SHR. §3.3.2's alternative,
// deferred maintenance, builds the same trees and pays in recomputes
// instead: it rebuilds the table when path selection reads it on a tree that
// has mutated since the last read. The first read of each tree epoch charges
// that rebuild, t.NumNodes(), to Stats.SHRComputes without running it.
// shrSeen is 1 + the epoch of the last read, 0 before the first.
func (s *Session) shrTree() *multicast.Tree {
	if e := s.tree.Epoch() + 1; s.shrSeen != e {
		s.stats.SHRComputes += s.tree.NumNodes()
		s.shrSeen = e
	}
	return s.tree
}

// shrAt returns SHR(S, n) for on-tree node n.
func (s *Session) shrAt(n graph.NodeID) int { return s.shrTree().SHR(n) }
