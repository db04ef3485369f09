// Incremental SPF (iSPF): Ramalingam–Reps-style delta repair of cached
// shortest-path trees.
//
// Every failure or repair event changes the active mask's fingerprint, which
// makes the SPF cache go cold even though a single failed link or node
// typically invalidates only the small subtree hanging below it. This file
// repairs a resident tree in place instead of re-running Dijkstra over the
// whole topology, in one seeded label-setting pass:
//
//   - Elements *added* to the mask (failures): classify every node as alive
//     (its old shortest path avoids all newly dead elements), gone (newly
//     blocked, or already unreachable), or orphaned (its old path crossed a
//     dead element) with one O(V) memoized parent-chain walk; reset the gone
//     and the orphaned nodes, and seed each orphan from its frontier of alive
//     neighbours.
//   - Elements *removed* from the mask (repairs): relax the revived edges
//     both ways, and seed each revived node from its reachable neighbours.
//   - Settle every seed with ripple, which relaxes all live arcs in
//     (distance, node) order: a strict improvement queues the neighbour, an
//     equal distance from a smaller ID takes the parent in place.
//
// The repaired tree is bit-identical to a from-scratch sweep: the final
// (dist, parent) pair of Dijkstra with this package's tie-breaking is a pure
// function of (graph, source, mask) — dist is the true shortest distance and
// parent[v] is the minimum-ID neighbor u with dist[u] + w(u,v) == dist[v] —
// so producing the same function by another route yields byte-identical
// downstream study output. TestISPFEquivalence pins this against a sweep
// oracle over random topologies and event sequences.
package graph

import (
	"sync"
	"sync/atomic"

	"smrp/internal/metrics"
)

// Package-wide SPF work counters (see metrics.SPFStats for field meaning).
// They are process-global rather than per-cache so a study spanning many
// per-trial topologies still reports one comparable total.
var (
	spfFullRuns     atomic.Uint64
	spfDeltaRuns    atomic.Uint64
	spfNodesSettled atomic.Uint64
	spfCacheHits    atomic.Uint64
	spfCacheMisses  atomic.Uint64

	// spfDeltaOff disables the delta-repair path: every cache miss becomes
	// a full sweep. Used to measure the full-recompute baseline
	// deterministically.
	spfDeltaOff atomic.Bool
)

// SPFCounters returns a snapshot of the process-wide SPF work counters.
// The counters are atomics: snapshotting and incrementing may race freely
// (e.g. a /metrics scrape during live traffic).
func SPFCounters() metrics.SPFStats {
	return metrics.SPFStats{
		FullRuns:     spfFullRuns.Load(),
		DeltaRuns:    spfDeltaRuns.Load(),
		NodesSettled: spfNodesSettled.Load(),
		CacheHits:    spfCacheHits.Load(),
		CacheMisses:  spfCacheMisses.Load(),
	}
}

// SetSPFDelta enables (default) or disables the incremental-SPF path. With
// it disabled every cache miss runs a full sweep — the full-recompute
// baseline the delta counters are compared against, which is what the
// chaos study's delta-reduction test and TestSPFDeltaToggle turn it off
// for. Results are identical either way.
//
// The switch is process-global state shared by every cache and every
// session: flip it only while no session runs. The flag itself is an atomic,
// but a mid-run flip changes which code path concurrent lookups take and
// makes work counters incomparable.
func SetSPFDelta(enabled bool) { spfDeltaOff.Store(!enabled) }

// Node classification states of a repair's failure walk.
const (
	ispfAlive  uint8 = iota + 1 // old shortest path avoids all dead elements
	ispfOrphan                  // old path crossed a dead element: re-seed
	ispfGone                    // newly blocked, or already unreachable
)

// ispfScratch is the pooled arena of a repair or a full run: the failure
// walk's classification and work list, the epoch-stamped settled marks, the
// queue, a full run's buckets, and the diff buffers. Steady-state repairs
// allocate nothing (TestISPFRepairSteadyStateAllocs).
type ispfScratch struct {
	epoch uint32
	done  []uint32 // done[v] == epoch: v settled in this run's ripple
	state []uint8  // state[v]: v's class in the failure walk, 0 before it
	stk   []NodeID
	queue radixQueue
	// buckets is a full run's circular bucket array (bucketPass), empty
	// between runs.
	buckets [][]int32
	added   []MaskElem
	removed []MaskElem
	// the failed nodes and edges of added, rebuilt per repair
	addNodes []NodeID
	addEdges []EdgeID
}

var ispfPool = sync.Pool{New: func() any { return new(ispfScratch) }}

// begin sizes the arena for an n-node graph and advances the settled epoch.
func (sc *ispfScratch) begin(n int) {
	if n > len(sc.done) {
		sc.done = make([]uint32, n)
		sc.state = make([]uint8, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: marks ambiguous, hard reset
		clear(sc.done)
		sc.epoch = 1
	}
	sc.queue.Reset()
	sc.stk = sc.stk[:0]
	sc.addNodes = sc.addNodes[:0]
	sc.addEdges = sc.addEdges[:0]
}

// cloneTree returns a deep, privately owned copy of t for clone-on-write
// repair.
func cloneTree(t *SPTree) *SPTree {
	nt := &SPTree{
		Source: t.Source,
		Dist:   make([]float64, len(t.Dist)),
		parent: make([]int32, len(t.parent)),
	}
	copy(nt.Dist, t.Dist)
	copy(nt.parent, t.parent)
	return nt
}

// ispfRepair repairs t — a private clone of a tree computed under some old
// mask — so that it equals the full Dijkstra tree under the new mask, where
// added/removed is the (sorted, bounded) element diff new-minus-old. It
// returns the number of queue-settled nodes and whether the repair applied;
// ok=false means the caller must fall back to a full sweep (t may be
// partially modified and must be discarded). The repair gives up only on
// degenerate sources: the new mask blocks the source, or the old tree never
// reached it (an all-unreachable base carries no usable distances).
//
// Why one pass needs no ordering between failures and repairs: after the
// seeding every distance is that of a live path under the new mask, and
// every live arc (u, v) that would still shorten v starts at a queued u. An
// alive node's path survives; arcs among alive nodes were final under the
// old mask plus the failures, and the new mask adds only revived arcs, which
// are relaxed here; an orphan takes the best of its alive arcs; an orphan or
// revived node with a distance is queued, and one without has no arc to
// offer. ripple then settles in (distance, node) order and relaxes every
// live arc of each node it settles, alive neighbours included, so Dijkstra's
// argument gives every settled node its final distance. The parent follows
// as in a full run: each neighbour that gives v its distance is either
// settled by ripple, which relaxes v from it, or alive and unchanged, and
// then its arc was in the old parent's argmin, an orphan's seed, or a revived
// arc's relaxation.
func ispfRepair(g *Graph, t *SPTree, added, removed []MaskElem, mask *Mask, sc *ispfScratch) (settled int, ok bool) {
	src := t.Source
	n := g.NumNodes()
	if len(t.Dist) != n || mask.NodeBlocked(src) || t.Dist[src] != 0 {
		return 0, false
	}
	sc.begin(n)
	checkEdges := mask.hasEdgeBlocks()
	checkNodes := mask.hasNodeBlocks()
	base := g.base

	// Failures. Skip the walk entirely when no added element can touch the
	// tree: a blocked node that was already unreachable, or a blocked edge
	// that is not a tree edge, changes nothing (removing a non-tree edge
	// cannot shorten any path, and the parent argmin is unaffected because
	// only the current parent's edge is a tree edge).
	touches := false
	for _, e := range added {
		if !e.IsEdge {
			if !g.valid(e.Node) {
				continue
			}
			sc.addNodes = append(sc.addNodes, e.Node)
			if t.Reachable(e.Node) {
				touches = true
			}
			continue
		}
		if !g.valid(e.Edge.A) || !g.valid(e.Edge.B) {
			continue
		}
		sc.addEdges = append(sc.addEdges, e.Edge)
		if t.Parent(e.Edge.B) == e.Edge.A || t.Parent(e.Edge.A) == e.Edge.B {
			touches = true
		}
	}
	if touches {
		// Classify every node with a memoized walk up its parent chain: the
		// walk ends at a classified node, an unreachable or newly blocked one
		// (gone), the source (alive), or a node whose parent edge failed
		// (orphan). Every node passed on the way is alive below an alive end
		// and orphaned below any other.
		clear(sc.state[:n])
		for v := range n {
			cur := NodeID(v)
			st := sc.state[cur]
			for st == 0 {
				switch {
				case t.Dist[cur] == Unreachable || nodeListHas(sc.addNodes, cur):
					st = ispfGone
				case cur == src:
					st = ispfAlive
				case edgeListHas(sc.addEdges, MakeEdgeID(t.Parent(cur), cur)):
					st = ispfOrphan
				default:
					sc.stk = append(sc.stk, cur)
					cur = t.Parent(cur)
					st = sc.state[cur]
					continue
				}
				sc.state[cur] = st
			}
			if st != ispfAlive {
				st = ispfOrphan
			}
			for _, w := range sc.stk {
				sc.state[w] = st
			}
			sc.stk = sc.stk[:0]
		}
		// Reset the gone nodes, and seed each orphan from its frontier of
		// alive neighbours: the relaxations a full sweep would make across
		// the alive/orphan boundary. An orphan with no such neighbour stays
		// unreachable until the pass reaches it.
		for v := NodeID(0); int(v) < n; v++ {
			switch sc.state[v] {
			case ispfGone:
				t.Dist[v], t.parent[v] = Unreachable, int32(Invalid)
			case ispfOrphan:
				dv, pv := Unreachable, Invalid
				rowEdges := checkEdges && mask.touchesBlockedEdge(v)
				to, w := g.arcs(v)
				w = w[:len(to)]
				for i, x := range to {
					u := NodeID(x - base)
					if sc.state[u] != ispfAlive || (rowEdges && mask.edges[MakeEdgeID(u, v)]) {
						continue
					}
					if nd := t.Dist[u] + w[i]; nd < dv || (nd == dv && u < pv) {
						dv, pv = nd, u
					}
				}
				t.Dist[v], t.parent[v] = dv, int32(pv)
				if pv != Invalid {
					sc.queue.Push(heapItem{node: v, dist: dv})
				}
			}
		}
	}

	// Repairs: relax each revived edge both ways, and attach each revived
	// node through its usable neighbours.
	relax := func(u, v NodeID, w float64) {
		// caller guarantees u reachable and (u,v) usable under mask
		nd := t.Dist[u] + w
		if nd < t.Dist[v] {
			t.Dist[v] = nd
			t.parent[v] = int32(u)
			sc.queue.Push(heapItem{node: v, dist: nd})
		} else if nd == t.Dist[v] && u < t.Parent(v) {
			t.parent[v] = int32(u)
		}
	}
	for _, e := range removed {
		if e.IsEdge {
			u, v := e.Edge.A, e.Edge.B
			w, exists := g.EdgeWeight(u, v)
			if !exists || mask.EdgeBlocked(u, v) {
				continue
			}
			if t.Dist[u] != Unreachable {
				relax(u, v, w)
			}
			if t.Dist[v] != Unreachable {
				relax(v, u, w)
			}
			continue
		}
		v := e.Node
		if !g.valid(v) || mask.NodeBlocked(v) {
			continue
		}
		rowEdges := checkEdges && mask.touchesBlockedEdge(v)
		to, w := g.arcs(v)
		w = w[:len(to)]
		for i, x := range to {
			u := NodeID(x - base)
			if t.Dist[u] == Unreachable || (checkNodes && mask.nodeBlocked(u)) ||
				(rowEdges && mask.edges[MakeEdgeID(u, v)]) {
				continue
			}
			relax(u, v, w[i])
		}
	}
	return sc.ripple(g, t, mask), true
}

// ripple settles the queued nodes of t in (distance, node) order, each once,
// relaxing its live arcs: a strict improvement queues the neighbour, an equal
// distance from a smaller ID takes the parent in place. It is the settle loop
// of a repair, whose argument needs the settle order, and the fallback of a
// full run (Graph.dijkstra) whose bucketed pass is ruled out or gives up. It
// returns the nodes it settled.
func (sc *ispfScratch) ripple(g *Graph, t *SPTree, mask *Mask) (settled int) {
	checkEdges := mask.hasEdgeBlocks()
	checkNodes := mask.hasNodeBlocks()
	base := g.base
	for {
		item, popped := sc.queue.Pop()
		if !popped {
			return settled
		}
		u := item.node
		if sc.done[u] == sc.epoch || item.dist > t.Dist[u] {
			continue
		}
		sc.done[u] = sc.epoch
		settled++
		du := t.Dist[u]
		rowEdges := checkEdges && mask.touchesBlockedEdge(u)
		to, w := g.arcs(u)
		w = w[:len(to)]
		for i, x := range to {
			v := NodeID(x - base)
			// The distance first: most arcs of a repair lead to alive
			// nodes that gain nothing.
			nd, dv := du+w[i], t.Dist[v]
			if nd > dv || sc.done[v] == sc.epoch {
				continue // no gain, or settled in distance order: final
			}
			if (checkNodes && mask.nodeBlocked(v)) || (rowEdges && mask.edges[MakeEdgeID(u, v)]) {
				continue
			}
			if nd < dv {
				t.Dist[v] = nd
				t.parent[v] = int32(u)
				sc.queue.Push(heapItem{node: v, dist: nd})
			} else if u < t.Parent(v) {
				t.parent[v] = int32(u)
			}
		}
	}
}

// nodeListHas reports whether n occurs in list (linear scan; diff lists are
// bounded by DefaultDiffLimit, so this beats a map on both allocation and
// constant factor).
func nodeListHas(list []NodeID, n NodeID) bool {
	for _, x := range list {
		if x == n {
			return true
		}
	}
	return false
}

// edgeListHas reports whether e occurs in list (linear scan, see nodeListHas).
func edgeListHas(list []EdgeID, e EdgeID) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}
