package graph

import (
	"math"
	"math/bits"
	"slices"
)

// Unreachable is the distance reported for nodes that cannot be reached.
var Unreachable = math.Inf(1)

// SPTree is a shortest-path tree rooted at Source, as produced by Dijkstra.
// A tree costs 12 bytes a node: its distance, and its parent in 32 bits,
// which holds every node ID because Freeze refuses larger graphs
// (TestSPTreeBytesPerNode).
type SPTree struct {
	Source NodeID
	Dist   []float64 // Dist[n] = shortest distance from Source to n (Unreachable if none)
	parent []int32   // parent[n] = predecessor of n on its shortest path (Invalid at Source / unreachable)
}

// Parent returns n's predecessor on its shortest path (Invalid at the source
// or when unreachable).
func (t *SPTree) Parent(n NodeID) NodeID { return NodeID(t.parent[n]) }

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
	for cur := n; cur != Invalid; cur = t.Parent(cur) {
		ln++
	}
	p := make(Path, ln)
	for cur, i := n, ln-1; cur != Invalid; cur, i = t.Parent(cur), i-1 {
		p[i] = cur
	}
	return p
}

// Dijkstra computes the shortest-path tree from src over the graph minus the
// mask. Nodes settle in (distance, node) order and an equal distance takes
// the smaller parent ID, so the resulting tree is deterministic.
//
// The result comes from the graph's SPF cache, which keeps src's healthy tree
// and its tree under the last mask asked about, shared between callers; the
// call is safe for concurrent use and the tree must be treated as read-only.
func (g *Graph) Dijkstra(src NodeID, mask *Mask) *SPTree {
	return g.spf.Dijkstra(src, mask)
}

// dijkstra is the full shortest-path-tree computation behind a cache miss,
// on a freshly allocated SPTree, which escapes (it is cached and shared): the
// bucketed pass where the graph allows it and the pass keeps to its budget,
// else ripple, a repair's settle loop, seeded with the source alone, which
// gives the same tree bit for bit. A blocked or invalid source leaves every
// node unreachable.
func (g *Graph) dijkstra(src NodeID, mask *Mask) *SPTree {
	n := g.NumNodes()
	t := &SPTree{
		Source: src,
		Dist:   make([]float64, n),
		parent: make([]int32, n),
	}
	t.clear()
	spfFullRuns.Add(1)
	if !g.valid(src) || mask.NodeBlocked(src) {
		return t
	}
	sc := ispfPool.Get().(*ispfScratch)
	t.Dist[src] = 0
	reached, ok := 0, false
	if g.stepInv > 0 {
		reached, ok = sc.bucketPass(g, t, mask)
	}
	if !ok {
		sc.begin(n)
		sc.queue.Push(heapItem{node: src})
		reached = sc.ripple(g, t, mask)
	}
	spfNodesSettled.Add(uint64(reached))
	ispfPool.Put(sc)
	return t
}

// clear makes every node of t unreachable.
func (t *SPTree) clear() {
	for i := range t.Dist {
		t.Dist[i], t.parent[i] = Unreachable, int32(Invalid)
	}
}

// maxSteps bounds the buckets of a full run's bucketed pass.
const maxSteps = 1 << 12

// setStep derives the bucketed pass's bucket width Δ from the arc weights,
// once per frozen graph: an eighth of the mean weight, widened where the
// heaviest arc would otherwise reach more than maxSteps buckets ahead. It
// leaves stepInv at 0, so that every full run ripples, when there are no
// arcs or minW·2⁵² ≤ n·maxW. Otherwise adding any weight to any distance,
// which is at most (n−1)·maxW, rounds to a larger distance, with a factor of
// two to spare for the distance's own rounding: the premise of the pass.
func (g *Graph) setStep() {
	if len(g.w) == 0 {
		return
	}
	minW, maxW, sum := math.Inf(1), 0.0, 0.0
	for _, w := range g.w { // positive and finite: no NaN for min and max to mind
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
		sum += w
	}
	inv := 8 * float64(len(g.w)) / sum
	if minW*0x1p52 <= float64(g.NumNodes())*maxW || !(inv > 0) {
		return
	}
	inv = min(inv, (maxSteps-4)/maxW)
	g.stepInv = inv
	g.stepWrap = 1<<bits.Len(uint(maxW*inv)+2) - 1
}

// bucketPass computes t, seeded with its source at distance 0 and every other
// node unreachable, over the graph minus the mask: Δ-stepping (Meyer &
// Sanders, J. Algorithms 2003) on one goroutine. Bucket k of a circular array
// of stepWrap+1 holds the nodes queued at a distance d with ⌊d/Δ⌋ = k; the
// pass drains the buckets in turn, each as a stack, and skips a node whose
// distance has left the bucket since it was queued. A relaxation is ripple's:
// a strict improvement queues the neighbour, an equal distance from a smaller
// ID takes the parent. No arc reaches more than stepWrap buckets ahead, so a
// bucket never holds nodes of two turns of the array.
//
// Nodes are settled in no particular order and may be settled more than
// once, yet the tree is ripple's (TestFullSPFMatchesRipple). Where adding a
// weight to a distance always rounds to a larger distance (setStep), the
// distances are the one fixpoint of d(v) = min over arcs (u, v) of
// d(u) + w(u, v), which the pass ends at; and the parent of v is the least u
// whose arc gives d(v), which the pass and ripple both pick.
//
// The pass gives up, returning ok false with t cleared back to its seed and
// the buckets empty, once its arc scans pass four times the graph's nodes and
// arcs, so that a full run costs at most that and one ripple. Otherwise it
// returns the nodes it reached, the number ripple would have settled.
func (sc *ispfScratch) bucketPass(g *Graph, t *SPTree, mask *Mask) (reached int, ok bool) {
	inv, wrap := g.stepInv, g.stepWrap
	for len(sc.buckets) <= wrap {
		sc.buckets = append(sc.buckets, nil)
	}
	checkEdges := mask.hasEdgeBlocks()
	checkNodes := mask.hasNodeBlocks()
	base := g.base
	budget := 4 * (g.NumNodes() + 2*g.edges)
	sc.buckets[0] = append(sc.buckets[0], int32(t.Source))
	queued, reached := 1, 1
	for k := 0; queued > 0; k++ {
		b := &sc.buckets[k&wrap]
		for len(*b) > 0 {
			u := NodeID((*b)[len(*b)-1])
			*b = (*b)[:len(*b)-1]
			queued--
			du := t.Dist[u]
			if int(du*inv) != k {
				continue // queued again since, at a smaller distance
			}
			to, w := g.arcs(u)
			if budget -= len(to) + 1; budget < 0 {
				for i := range sc.buckets[:wrap+1] {
					sc.buckets[i] = sc.buckets[i][:0]
				}
				t.clear()
				t.Dist[t.Source] = 0
				return 0, false
			}
			rowEdges := checkEdges && mask.touchesBlockedEdge(u)
			w = w[:len(to)]
			for i, x := range to {
				v := NodeID(x - base)
				if checkNodes && mask.nodeBlocked(v) {
					continue
				}
				if rowEdges && mask.edges[MakeEdgeID(u, v)] {
					continue
				}
				nd := du + w[i]
				if dv := t.Dist[v]; nd < dv {
					if dv == Unreachable {
						reached++
					}
					t.Dist[v] = nd
					t.parent[v] = int32(u)
					q := &sc.buckets[int(nd*inv)&wrap]
					*q = append(*q, int32(v))
					queued++
				} else if nd == dv && u < t.Parent(v) {
					t.parent[v] = int32(u)
				}
			}
		}
	}
	return reached, true
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
