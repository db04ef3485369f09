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

	"smrp/internal/core"
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
// through graph.Graph.Dijkstra, so sessions over the same graph and source
// share the two trees its SPF cache keeps for that source — including across
// parallel trials that pair an SPF baseline with SMRP variants on one
// topology.
type Session struct {
	g    *graph.Graph
	tree *multicast.Tree
	// spt caches the source's shortest-path tree over the network as the
	// session last heard of it (around failed, once Fail has run). It may be
	// shared with the graph's SPF cache and must not be mutated.
	spt *graph.SPTree
	// failed accumulates every component Fail took down; nil while the
	// network is healthy.
	failed *graph.Mask
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
	seg, err := s.JoinSegment(nr)
	if err != nil {
		return err
	}
	if err := s.tree.Graft(seg, true); err != nil {
		return fmt.Errorf("join %d: graft: %w", nr, err)
	}
	return nil
}

// JoinSegment returns the segment Join(nr) would graft now, merger first and
// nr last — the new links nr's Join_Req travels. It changes nothing; an
// on-tree relay's segment is nr alone.
func (s *Session) JoinSegment(nr graph.NodeID) (graph.Path, error) {
	if nr < 0 || int(nr) >= s.g.NumNodes() {
		return nil, fmt.Errorf("join %d: %w", nr, graph.ErrUnknownNode)
	}
	if s.tree.IsMember(nr) {
		return nil, fmt.Errorf("join %d: %w", nr, ErrAlreadyMember)
	}
	if s.tree.OnTree(nr) {
		return graph.Path{nr}, nil
	}
	p := s.spt.PathTo(nr) // source → … → nr
	if p == nil {
		return nil, fmt.Errorf("join %d: %w", nr, ErrNoPath)
	}
	return mergeSegment(s.tree, p), nil
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

// Leave removes member m, pruning its unused branch.
func (s *Session) Leave(m graph.NodeID) error {
	return s.tree.Leave(m)
}

// HealReport describes an SPF (global-detour) recovery.
type HealReport struct {
	Disconnected []graph.NodeID
	// Recovered holds one record per recoverable member, ascending. A
	// record's Detour is the member's post-reconvergence unicast path up to
	// its first node on the surviving tree, and its RD is that segment's
	// weight: the links the rejoin would bring into the tree, measured for
	// each member alone before anyone rejoins. That is the isolated
	// global-detour RD, unlike core.HealReport's, which is measured as
	// grafted. Members that then rejoin one after another may bring in less,
	// as a later one can reach a node an earlier one's rejoin added.
	Recovered []core.Recovery
	// Unrecovered lists members partitioned from the source.
	Unrecovered []graph.NodeID
}

// Fail takes the components in fs down for good. It flushes the tree state
// they cut off from the source, reports the members that lost their branch
// with each one's global-detour recovery distance (measured against the
// surviving tree, before anyone rejoins), and reroutes later joins around
// every component failed so far — unicast routing reconverging. The members
// rejoin by Join. A batch that takes the source down, or names a component
// the topology lacks, is refused before anything changes.
func (s *Session) Fail(fs ...failure.Failure) (*HealReport, error) {
	if failure.TakesDownNode(fs, s.tree.Source()) {
		return nil, failure.ErrSourceFailed
	}
	if err := failure.Check(fs, s.g); err != nil {
		return nil, fmt.Errorf("spfbase: fail: %w", err)
	}
	if s.failed == nil {
		s.failed = graph.NewMask()
	}
	for _, f := range fs {
		f.ApplyTo(s.failed)
	}
	var flushed []graph.NodeID
	_, _, err := failure.DeadRoots(s.tree, s.failed, nil, func(root graph.NodeID) (err error) {
		flushed, err = s.tree.DetachSubtree(root, flushed)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("spfbase: flush dead: %w", err)
	}
	// Members that failed themselves are gone, not disconnected.
	rep := &HealReport{Disconnected: slices.DeleteFunc(flushed, s.failed.NodeBlocked)}
	slices.Sort(rep.Disconnected)
	// The flush kept every surviving node and nothing else, so the detours
	// measure as they would have before it, and a path's first node on the
	// tree is where its RD stops.
	for _, m := range rep.Disconnected {
		p, rd, err := failure.GlobalDetour(s.tree, s.failed, m)
		if err != nil {
			rep.Unrecovered = append(rep.Unrecovered, m)
			continue
		}
		rep.Recovered = append(rep.Recovered, core.Recovery{Member: m, Detour: p[:slices.IndexFunc(p, s.tree.OnTree)+1], RD: rd})
	}
	s.spt = s.g.Dijkstra(s.tree.Source(), s.failed)
	return rep, nil
}
