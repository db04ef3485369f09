// Package faultisolation infers where a failure occurred inside a multicast
// tree from reachability observations alone — which receivers still get
// data and which went silent. This is the role of Reddy, Govindan & Estrin's
// "Fault Isolation in Multicast Trees" (the paper's reference [1]) inside
// SMRP's hierarchical recovery architecture: before a recovery domain can
// handle a failure, someone must identify which domain the failure is in.
//
// The isolation rule is purely structural: a tree edge (p → c) is a suspect
// if and only if everything reachable through c went dark while p still has
// a live path — equivalently, c's subtree contains no reachable member and
// the failure frontier passes between p and c. With a single link/node
// failure the true failed component always lies in the suspect set, and the
// set is minimal for the information available (observations cannot
// distinguish a link (p→c) failure from a failure of node c itself when c
// has no member descendants that survive).
package faultisolation

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// Observation is the input to isolation: which members are currently
// receiving data.
type Observation struct {
	// Reachable holds the members still receiving the stream.
	Reachable map[graph.NodeID]bool
}

// NewObservation builds an observation from the reachable-member list.
func NewObservation(reachable []graph.NodeID) Observation {
	m := make(map[graph.NodeID]bool, len(reachable))
	for _, n := range reachable {
		m[n] = true
	}
	return Observation{Reachable: m}
}

// Suspect is one candidate failure location.
type Suspect struct {
	// Edge is the tree link whose downstream side went dark.
	Edge graph.EdgeID
	// Down is the downstream endpoint (the subtree root that lost service);
	// a failure of node Down itself is observationally equivalent.
	Down graph.NodeID
	// DarkMembers counts the members isolated below this edge.
	DarkMembers int
}

// Errors returned by Isolate.
var (
	// ErrNoFailure is returned when every member is reachable.
	ErrNoFailure = errors.New("faultisolation: all members reachable")
	// ErrInconsistent is returned when the observation cannot result from
	// any set of tree-edge failures (e.g. an off-tree node reported
	// reachable).
	ErrInconsistent = errors.New("faultisolation: observation inconsistent with tree")
)

// Isolate returns the minimal suspect set explaining the observation: the
// highest tree edges whose entire downstream member set went dark while the
// upstream side still reaches at least the source. Suspects are ordered by
// descending DarkMembers, then ascending edge.
//
// For a single-failure event the true failed link (or its downstream node)
// is always in the returned set; multiple simultaneous failures yield one
// suspect per maximal dark subtree.
func Isolate(t *multicast.Tree, obs Observation) ([]Suspect, error) {
	// Validate the observation, naming the lowest non-member reported.
	bad := graph.Invalid
	for n := range obs.Reachable {
		if !t.IsMember(n) && (bad == graph.Invalid || n < bad) {
			bad = n
		}
	}
	if bad != graph.Invalid {
		return nil, fmt.Errorf("%w: %d reported reachable but is not a member", ErrInconsistent, bad)
	}
	dark := 0
	for _, m := range t.Members() {
		if !obs.Reachable[m] {
			dark++
		}
	}
	if dark == 0 {
		return nil, ErrNoFailure
	}

	// liveMembers[n] = number of reachable members in the subtree rooted
	// at n; total[n] = total members in the subtree.
	live := make(map[graph.NodeID]int, t.NumNodes())
	total := make(map[graph.NodeID]int, t.NumNodes())
	type frame struct {
		node    graph.NodeID
		visited bool
	}
	stack := []frame{{node: t.Source()}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.visited {
			l, tt := 0, 0
			if t.IsMember(f.node) {
				tt = 1
				if obs.Reachable[f.node] {
					l = 1
				}
			}
			for _, k := range t.Children(f.node) {
				l += live[k]
				tt += total[k]
			}
			live[f.node] = l
			total[f.node] = tt
			continue
		}
		stack = append(stack, frame{node: f.node, visited: true})
		for _, k := range t.Children(f.node) {
			stack = append(stack, frame{node: k})
		}
	}

	// A suspect is the highest edge (p→c) such that c's subtree has members
	// but none reachable, and p is NOT itself inside a fully-dark subtree
	// (those are explained by the higher suspect).
	var suspects []Suspect
	var walk func(n graph.NodeID)
	walk = func(n graph.NodeID) {
		for _, c := range t.Children(n) {
			if total[c] > 0 && live[c] == 0 {
				suspects = append(suspects, Suspect{
					Edge:        graph.MakeEdgeID(n, c),
					Down:        c,
					DarkMembers: total[c],
				})
				continue // everything below is explained
			}
			walk(c)
		}
	}
	walk(t.Source())

	if len(suspects) == 0 {
		// Dark members exist but every dark member sits in a subtree with
		// some live member — impossible for pure downstream-cut failures.
		return nil, fmt.Errorf("%w: dark members without a dark subtree", ErrInconsistent)
	}
	slices.SortFunc(suspects, func(a, b Suspect) int {
		if a.DarkMembers != b.DarkMembers {
			return b.DarkMembers - a.DarkMembers
		}
		if a.Edge.A != b.Edge.A {
			return int(a.Edge.A - b.Edge.A)
		}
		return int(a.Edge.B - b.Edge.B)
	})
	return suspects, nil
}

// ObserveFailure produces the observation a monitoring system would see
// after the given failure mask: members still connected to the source over
// surviving tree edges.
func ObserveFailure(t *multicast.Tree, mask *graph.Mask) Observation {
	reach := make(map[graph.NodeID]bool)
	if mask.NodeBlocked(t.Source()) {
		return Observation{Reachable: reach}
	}
	stack := []graph.NodeID{t.Source()}
	seen := map[graph.NodeID]bool{t.Source(): true}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.IsMember(n) {
			reach[n] = true
		}
		for _, k := range t.Children(n) {
			if seen[k] || mask.NodeBlocked(k) || mask.EdgeBlocked(n, k) {
				continue
			}
			seen[k] = true
			stack = append(stack, k)
		}
	}
	return Observation{Reachable: reach}
}
