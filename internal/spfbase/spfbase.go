// Package spfbase implements the baseline the paper compares SMRP against:
// an SPF-based multicast routing protocol in the style of MOSPF/PIM. Members
// join along the source's unicast shortest-path tree, and failure recovery
// is the "global detour": wait for unicast routing to reconverge, then
// rejoin along the new shortest path to the source.
package spfbase

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// Sentinel errors returned by Session operations.
var (
	// ErrAlreadyMember is returned when a join names an existing member.
	ErrAlreadyMember = errors.New("spfbase: node is already a member")
	// ErrNoPath is returned when a joining node cannot reach the source.
	ErrNoPath = errors.New("spfbase: no path to the source")
)

// Session is a synchronous SPF-based multicast session. All member paths
// follow the source-rooted shortest-path tree (deterministic tie-breaking),
// so shared prefixes merge maximally — exactly the link/node concentration
// SMRP is designed to avoid.
//
// Session is not safe for concurrent use. Its shortest-path queries go
// through graph.Graph.Dijkstra, so when the topology has a memoizing SPF
// cache attached (Graph.EnableSPFCache) sessions over the same graph share
// memoized trees automatically — including across parallel trials that pair
// an SPF baseline with SMRP variants on one topology.
type Session struct {
	g    *graph.Graph
	tree *multicast.Tree
	// spt caches the source's shortest-path tree over the network as the
	// session last heard of it (healthy until Reroute or Heal says otherwise).
	// It may be shared with the graph's SPF cache and must not be mutated.
	spt *graph.SPTree
}

// NewSession creates an SPF multicast session on g rooted at source.
func NewSession(g *graph.Graph, source graph.NodeID) (*Session, error) {
	tree, err := multicast.New(g, source)
	if err != nil {
		return nil, err
	}
	return &Session{
		g:    g,
		tree: tree,
		spt:  g.Dijkstra(source, nil),
	}, nil
}

// Tree returns the session's multicast tree. Callers must not mutate it
// directly.
func (s *Session) Tree() *multicast.Tree { return s.tree }

// Join admits nr along the source's shortest path, merging at the deepest
// node already on the tree (PIM-style join toward the source).
func (s *Session) Join(nr graph.NodeID) error {
	if nr < 0 || int(nr) >= s.g.NumNodes() {
		return fmt.Errorf("join %d: %w", nr, graph.ErrUnknownNode)
	}
	if s.tree.IsMember(nr) {
		return fmt.Errorf("join %d: %w", nr, ErrAlreadyMember)
	}
	if s.tree.OnTree(nr) {
		return s.tree.Graft(graph.Path{nr}, true)
	}
	p := s.spt.PathTo(nr) // source → … → nr
	if p == nil {
		return fmt.Errorf("join %d: %w", nr, ErrNoPath)
	}
	seg := mergeSegment(s.tree, p)
	if err := s.tree.Graft(seg, true); err != nil {
		return fmt.Errorf("join %d: graft: %w", nr, err)
	}
	return nil
}

// mergeSegment trims a source-rooted path to its suffix starting at the
// deepest on-tree node, i.e. the segment a PIM join would actually set up.
// All member paths come from the same source SPT, so every node before that
// suffix is already on the tree with the same upstream.
func mergeSegment(t *multicast.Tree, p graph.Path) graph.Path {
	start := 0
	for i, n := range p {
		if t.OnTree(n) {
			start = i
		} else {
			break
		}
	}
	return p[start:]
}

// Reroute recomputes the source's shortest-path tree over the network mask
// leaves — unicast routing reconverging after a failure or a repair — so later
// joins follow routes that exist.
func (s *Session) Reroute(mask *graph.Mask) {
	s.spt = s.g.Dijkstra(s.tree.Source(), mask)
}

// Leave removes member m, pruning its unused branch.
func (s *Session) Leave(m graph.NodeID) error {
	return s.tree.Leave(m)
}

// FlushDead removes all tree state cut off from the source by the mask,
// returning the members that lost their branch. The protocol layer calls
// this at failure time and rejoins members individually after their routers
// reconverge.
func (s *Session) FlushDead(mask *graph.Mask) ([]graph.NodeID, error) {
	var flushed []graph.NodeID
	_, _, err := failure.DeadRoots(s.tree, mask, nil, func(root, _ graph.NodeID) (err error) {
		if flushed, err = s.tree.DetachSubtree(root, flushed); err != nil {
			return fmt.Errorf("flush dead: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Members that failed themselves are gone, not disconnected.
	disconnected := slices.DeleteFunc(flushed, mask.NodeBlocked)
	slices.Sort(disconnected)
	return disconnected, nil
}

// HealReport describes an SPF (global-detour) recovery.
type HealReport struct {
	Failure      failure.Failure
	Disconnected []graph.NodeID
	// RecoveryDistance maps each recovered member to the weight of the new
	// links its rejoin brought into the tree (the global-detour RD).
	RecoveryDistance map[graph.NodeID]float64
	// NewPaths maps each recovered member to its post-reconvergence unicast
	// path to the source (member → … → source).
	NewPaths map[graph.NodeID]graph.Path
	// Unrecovered lists members partitioned from the source.
	Unrecovered []graph.NodeID
	// Pruned lists stale relays reclaimed after recovery.
	Pruned []graph.NodeID
}

// Heal restores the session after the failure using global detours: the
// unicast routing reconverges (modeled by recomputing the source SPT on the
// residual network), dead tree state is flushed, and every disconnected
// member rejoins along its new shortest path. Recovery distances are
// measured against the surviving tree before any rejoin, matching the
// per-member accounting of the paper's evaluation.
func (s *Session) Heal(f failure.Failure) (*HealReport, error) {
	mask := f.Mask()
	if mask.NodeBlocked(s.tree.Source()) {
		return nil, failure.ErrSourceFailed
	}
	rep := &HealReport{
		Failure:          f,
		Disconnected:     failure.DisconnectedMembers(s.tree, mask),
		RecoveryDistance: make(map[graph.NodeID]float64),
		NewPaths:         make(map[graph.NodeID]graph.Path),
	}

	// Measure RDs against the pre-recovery surviving tree.
	for _, m := range rep.Disconnected {
		p, rd, err := failure.GlobalDetour(s.tree, mask, m)
		if err != nil {
			rep.Unrecovered = append(rep.Unrecovered, m)
			continue
		}
		rep.RecoveryDistance[m] = rd
		rep.NewPaths[m] = p
	}
	slices.Sort(rep.Unrecovered)

	if _, err := s.FlushDead(mask); err != nil {
		return nil, fmt.Errorf("heal: %w", err)
	}

	// Reconverged routing: new SPT over the residual network.
	s.Reroute(mask)

	// Rejoin each recoverable member along its new unicast path.
	for _, m := range rep.Disconnected {
		if _, ok := rep.NewPaths[m]; !ok {
			continue
		}
		p := s.spt.PathTo(m)
		if p == nil {
			rep.Unrecovered = append(rep.Unrecovered, m)
			delete(rep.RecoveryDistance, m)
			delete(rep.NewPaths, m)
			continue
		}
		seg := mergeSegment(s.tree, p)
		if err := s.tree.Graft(seg, true); err != nil {
			return nil, fmt.Errorf("heal: regraft %d: %w", m, err)
		}
	}
	slices.Sort(rep.Unrecovered)

	rep.Pruned = s.tree.PruneStale()
	return rep, nil
}
