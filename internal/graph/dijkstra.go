package graph

import (
	"math"
	"slices"
)

// Unreachable is the distance reported for nodes that cannot be reached.
var Unreachable = math.Inf(1)

// SPTree is a shortest-path tree rooted at Source, as produced by Dijkstra.
type SPTree struct {
	Source NodeID
	Dist   []float64 // Dist[n] = shortest distance from Source to n (Unreachable if none)
	Parent []NodeID  // Parent[n] = predecessor of n on its shortest path (Invalid at Source / unreachable)
}

// Reachable reports whether node n is reachable from the tree's source.
func (t *SPTree) Reachable(n NodeID) bool {
	return !math.IsInf(t.Dist[n], 1)
}

// PathTo reconstructs the shortest path from the tree's source to n, or nil
// if n is unreachable.
func (t *SPTree) PathTo(n NodeID) Path {
	if !t.Reachable(n) {
		return nil
	}
	ln := 0
	for cur := n; cur != Invalid; cur = t.Parent[cur] {
		ln++
	}
	p := make(Path, ln)
	for cur, i := n, ln-1; cur != Invalid; cur, i = t.Parent[cur], i-1 {
		p[i] = cur
	}
	return p
}

// Dijkstra computes the shortest-path tree from src over the graph minus the
// mask. Nodes settle in (distance, node) order and an equal distance takes
// the smaller parent ID, so the resulting tree is deterministic.
//
// The result comes from the graph's SPF cache, memoized by (src, mask
// fingerprint) and shared between callers, which also makes the call safe for
// concurrent use; the tree must be treated as read-only.
func (g *Graph) Dijkstra(src NodeID, mask *Mask) *SPTree {
	return g.spf.Dijkstra(src, mask)
}

// dijkstra is the full shortest-path-tree computation behind a cache miss:
// the source seeded into a repair's phase-B ripple on a freshly allocated
// SPTree, which escapes (it is memoized and shared). A blocked or invalid
// source leaves every node unreachable.
func (g *Graph) dijkstra(src NodeID, mask *Mask) *SPTree {
	n := g.NumNodes()
	t := &SPTree{
		Source: src,
		Dist:   make([]float64, n),
		Parent: make([]NodeID, n),
	}
	for i := range n {
		t.Dist[i], t.Parent[i] = Unreachable, Invalid
	}
	spfFullRuns.Add(1)
	if !g.valid(src) || mask.NodeBlocked(src) {
		return t
	}
	sc := ispfPool.Get().(*ispfScratch)
	sc.begin(n)
	t.Dist[src] = 0
	sc.queue.Push(heapItem{node: src})
	spfNodesSettled.Add(uint64(sc.ripple(g, t, mask)))
	ispfPool.Put(sc)
	return t
}

// ShortestPath returns the shortest path from src to dst avoiding the mask,
// together with its length. It returns (nil, Unreachable) when no path
// exists.
//
// It reads the full (src, mask) tree off the SPF cache: the cache stores only
// complete trees, because a tree truncated at one destination would silently
// under-serve the next caller asking the same (src, mask) about another.
func (g *Graph) ShortestPath(src, dst NodeID, mask *Mask) (Path, float64) {
	if !g.valid(dst) {
		return nil, Unreachable
	}
	t := g.Dijkstra(src, mask)
	if !t.Reachable(dst) {
		return nil, Unreachable
	}
	return t.PathTo(dst), t.Dist[dst]
}

// ScanNode is one settled node of a NearestScan.
type ScanNode struct {
	Node NodeID
	// Parent is the position in the scan of Node's shortest-path
	// predecessor, -1 at the source.
	Parent int32
	// Dist is the shortest distance from the source to Node.
	Dist float64
}

// NearestScan is the record of a nearest-of sweep: the nodes it settled, in
// settle order, the source first. Order, distances and parents depend only
// on (graph, mask, source) — what the sweep accepts and the budget it runs
// under decide where the record ends, never what it holds — so the scan of a
// smaller budget or an earlier-accepting set is a prefix of the scan of a
// larger or later one (FuzzNearestScanPrefix), and "the nearest accepted node
// under a grown accept set" is the earliest accepted position of the record
// already taken.
type NearestScan []ScanNode

// AppendPathFrom appends the path r[pos]→…→source to buf and returns it,
// growing buf at most once.
func (r NearestScan) AppendPathFrom(buf Path, pos int) Path {
	n := 0
	for i := int32(pos); i >= 0; i = r[i].Parent {
		n++
	}
	buf = slices.Grow(buf, n)
	for i := int32(pos); i >= 0; i = r[i].Parent {
		buf = append(buf, r[i].Node)
	}
	return buf
}

// ScanNearest sweeps outward from src over the graph minus the mask until
// the first settled node accept holds for (src included) and returns the
// sweep's record, written over rec's storage. Relaxations to a distance
// beyond budget are skipped (Unreachable: none are), so the record holds
// every node within budget that settles before the accepted one.
//
// hit reports that the record's last node is the accepted one. Otherwise
// exhausted tells the two ways of running dry apart: true when the sweep
// settled src's whole component — no accepted node is reachable at any
// budget — false when the budget kept it from a node it would have gone on
// to.
//
// accept must be a pure predicate: the sweep also asks it about nodes it
// relaxes, some of which never settle, to stop relaxing past the closest
// accepted node seen so far. The record is the same either way.
func (g *Graph) ScanNearest(rec NearestScan, src NodeID, mask *Mask, accept func(NodeID) bool, budget float64) (scan NearestScan, hit, exhausted bool) {
	s := g.NewSweep()
	defer s.Release()
	hit = s.run(src, mask, nil, accept, nil, Unreachable, budget, Invalid, 0) != Invalid
	return append(rec[:0], s.scan...), hit, !hit && !(budget < Unreachable && s.budgetCut(mask))
}

// budgetCut reports whether the last nearest-of run, having run dry, left a
// node of the source's component unsettled, which only its budget can have
// done (a node once queued settles before the queue empties): some settled
// node then has a live arc to an unsettled one. The frontier settled last,
// so the record is read backwards.
func (s *Sweep) budgetCut(mask *Mask) bool {
	checkEdges := mask.hasEdgeBlocks()
	for k := len(s.scan) - 1; k >= 0; k-- {
		u := s.scan[k].Node
		rowEdges := checkEdges && mask.touchesBlockedEdge(u)
		to, _ := s.g.arcs(u)
		for _, t := range to {
			v := NodeID(t - s.g.base)
			if s.settled[v] == s.epoch || mask.NodeBlocked(v) || (rowEdges && mask.edges[MakeEdgeID(u, v)]) {
				continue
			}
			return true
		}
	}
	return false
}

// NearestOf runs Dijkstra from src and returns the closest node for which
// accept returns true, along with the path to it and its distance. src itself
// is considered if accept(src) holds. It returns (Invalid, nil, Unreachable)
// when no accepted node is reachable.
//
// This is the primitive behind local-detour recovery: "find the nearest
// surviving on-tree node in the residual network". The sweep stops at the
// first settled accepted node, and the pooled scratch arena makes the
// steady-state call allocation-free apart from the returned path.
//
// NearestOf deliberately bypasses the graph's SPF cache: the sweep stops at
// the nearest survivor — a few hops out for a member that lost only its own
// uplink, the whole dead branch and its surroundings for a member deep inside
// one — which is less than the full (src, mask) tree a cache entry would
// require, and the sources are disconnected members, rarely re-queried. A
// caller that asks again while its accept set only grows should keep the
// record instead (ScanNearest).
//
// accept must be a pure predicate and may be asked about nodes that never
// settle (see ScanNearest).
func (g *Graph) NearestOf(src NodeID, mask *Mask, accept func(NodeID) bool) (NodeID, Path, float64) {
	n, p, d, _ := g.NearestOfCounted(src, mask, accept)
	return n, p, d
}

// NearestOfCounted is NearestOf reporting additionally how many nodes the
// early-exit sweep settled before finding (or failing to find) an accepted
// node. The count is the deterministic unit of recovery work the megascale
// study compares across architectures: on a flat topology the ball grows with
// the network, inside a domain sub-session it is bounded by the domain.
func (g *Graph) NearestOfCounted(src NodeID, mask *Mask, accept func(NodeID) bool) (NodeID, Path, float64, int) {
	s := g.NewSweep()
	defer s.Release()
	got := s.run(src, mask, nil, accept, nil, Unreachable, Unreachable, Invalid, 0)
	settled := s.SettledCount()
	if got == Invalid {
		return Invalid, nil, Unreachable, settled
	}
	return got, s.PathTo(got), s.dist[got], settled
}
