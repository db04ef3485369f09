// Incremental SPF (iSPF): Ramalingam–Reps-style delta repair of cached
// shortest-path trees.
//
// Every failure or repair event changes the active mask's fingerprint, which
// makes the SPF cache go cold even though a single failed link or node
// typically invalidates only the small subtree hanging below it. This file
// repairs a resident tree in place instead of re-running Dijkstra over the
// whole topology:
//
//   - Elements *added* to the mask (failures): classify every node as alive
//     (its old shortest path avoids all newly dead elements), gone (newly
//     blocked, or already unreachable), or orphaned (its old path crossed a
//     dead element) with one O(V) memoized parent-chain walk; reset the
//     orphans, seed each from its frontier of still-valid neighbors, and run
//     Dijkstra over the orphan set only.
//   - Elements *removed* from the mask (repairs): seed the queue with the
//     revived node/edge endpoints and ripple strict distance improvements
//     outward; equal-distance relaxations update only the parent (smaller ID
//     wins) and provably never need to propagate.
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

// Node classification states for the failure phase of a repair.
const (
	ispfAlive  uint8 = iota + 1 // old shortest path avoids all dead elements
	ispfOrphan                  // old path crossed a dead element: re-relax
	ispfGone                    // newly blocked, or already unreachable
)

// ispfScratch is the pooled arena of a repair or a full run: epoch-stamped
// classification state, the phase-B settled stamps, the walk/orphan work
// lists, the queue, a full run's buckets, and the diff buffers. Steady-state
// repairs allocate nothing (TestISPFRepairSteadyStateAllocs).
type ispfScratch struct {
	epoch   uint32
	stamp   []uint32 // stamp[v] == epoch: state[v] is valid for this repair
	state   []uint8
	setB    []uint32 // setB[v] == epoch: v settled in the improvement ripple
	stk     []NodeID
	orphans []NodeID
	queue   radixQueue
	// buckets is a full run's circular bucket array (bucketPass), empty
	// between runs.
	buckets [][]int32
	added   []MaskElem
	removed []MaskElem
	// split views of added/removed, rebuilt per repair
	addNodes []NodeID
	addEdges []EdgeID
	remEdges []EdgeID
}

var ispfPool = sync.Pool{New: func() any { return new(ispfScratch) }}

// begin sizes the arena for an n-node graph and advances the validity epoch.
func (sc *ispfScratch) begin(n int) {
	if n > len(sc.stamp) {
		sc.stamp = make([]uint32, n)
		sc.state = make([]uint8, n)
		sc.setB = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps ambiguous, hard reset
		clear(sc.stamp)
		clear(sc.setB)
		sc.epoch = 1
	}
	sc.queue.Reset()
	sc.stk = sc.stk[:0]
	sc.orphans = sc.orphans[:0]
	sc.addNodes = sc.addNodes[:0]
	sc.addEdges = sc.addEdges[:0]
	sc.remEdges = sc.remEdges[:0]
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

	// Phase A must compute exactly the tree under (old mask ∪ added) — the
	// pure-deletion step its correctness argument is about — so edges revived
	// by this same delta stay off-limits until phase B. Otherwise an orphan
	// can be re-attached through a revived edge at its final distance, phase
	// B's seed relaxation then sees no improvement and never ripples, and
	// alive nodes downstream (which phase A deliberately never re-relaxes)
	// keep their stale distances. Revived *nodes* need no such care: they
	// were blocked under the old mask, hence unreachable in the old tree,
	// hence classified gone and excluded from phase A automatically.
	for _, e := range removed {
		if e.IsEdge {
			sc.remEdges = append(sc.remEdges, e.Edge)
		}
	}
	checkRevived := len(sc.remEdges) > 0

	// --- Phase A: failures (elements added to the mask). ---
	// Skip entirely when no added element can touch the tree: a blocked node
	// that was already unreachable, or a blocked edge that is not a tree
	// edge, changes nothing (removing a non-tree edge cannot shorten any
	// path, and the parent argmin is unaffected because only the current
	// parent's edge is a tree edge).
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
		// Classify every node with a memoized walk up its parent chain.
		for v := 0; v < n; v++ {
			if sc.stamp[v] == sc.epoch {
				continue
			}
			cur := NodeID(v)
			var st uint8
			for {
				if sc.stamp[cur] == sc.epoch {
					st = sc.state[cur]
					break
				}
				if t.Dist[cur] == Unreachable {
					st = ispfGone
					sc.stamp[cur] = sc.epoch
					sc.state[cur] = st
					break
				}
				if cur == src {
					st = ispfAlive
					sc.stamp[cur] = sc.epoch
					sc.state[cur] = st
					break
				}
				if nodeListHas(sc.addNodes, cur) {
					st = ispfGone
					sc.stamp[cur] = sc.epoch
					sc.state[cur] = st
					break
				}
				p := t.Parent(cur)
				if edgeListHas(sc.addEdges, MakeEdgeID(p, cur)) {
					st = ispfOrphan
					sc.stamp[cur] = sc.epoch
					sc.state[cur] = st
					break
				}
				sc.stk = append(sc.stk, cur)
				cur = p
			}
			// Unwind: a node below an alive parent is alive; below an orphan
			// or gone parent it is orphaned (unless itself newly blocked,
			// which the loop above already caught before descending).
			for i := len(sc.stk) - 1; i >= 0; i-- {
				w := sc.stk[i]
				cst := ispfOrphan
				if st == ispfAlive {
					cst = ispfAlive
				}
				sc.stamp[w] = sc.epoch
				sc.state[w] = cst
				st = cst
			}
			sc.stk = sc.stk[:0]
		}
		// Reset gone and orphaned nodes; remember the orphans (ascending ID,
		// since the pass above runs in ID order).
		for v := 0; v < n; v++ {
			switch sc.state[v] {
			case ispfOrphan:
				t.Dist[v] = Unreachable
				t.parent[v] = int32(Invalid)
				sc.orphans = append(sc.orphans, NodeID(v))
			case ispfGone:
				t.Dist[v] = Unreachable
				t.parent[v] = int32(Invalid)
			}
		}
		// Seed each orphan from its frontier of alive neighbors. Alive
		// distances are final (deleting elements cannot shorten a path, and
		// every alive node's old path survives), so this is exactly the set
		// of relaxations a full sweep would perform across the alive/orphan
		// boundary.
		for _, v := range sc.orphans {
			dv, pv := Unreachable, Invalid
			rowEdges := checkEdges && mask.touchesBlockedEdge(v)
			to, w := g.arcs(v)
			w = w[:len(to)]
			for i, x := range to {
				u := NodeID(x - base)
				if sc.state[u] != ispfAlive || sc.stamp[u] != sc.epoch {
					continue
				}
				if e := MakeEdgeID(u, v); (rowEdges && mask.edges[e]) ||
					(checkRevived && edgeListHas(sc.remEdges, e)) {
					continue
				}
				if nd := t.Dist[u] + w[i]; nd < dv || (nd == dv && u < pv) {
					dv, pv = nd, u
				}
			}
			if pv != Invalid {
				t.Dist[v] = dv
				t.parent[v] = int32(pv)
				sc.queue.Push(heapItem{node: v, dist: dv})
			}
		}
		// Dijkstra restricted to the orphan set. Orphans settle in global
		// distance order (alive frontier contributions are all seeded), so
		// tie-breaking matches the full sweep exactly.
		for {
			item, popped := sc.queue.Pop()
			if !popped {
				break
			}
			u := item.node
			if sc.state[u] != ispfOrphan || item.dist > t.Dist[u] {
				continue // settled already, or a stale queue entry
			}
			sc.state[u] = ispfAlive // settled: distance is final
			settled++
			du := t.Dist[u]
			rowEdges := checkEdges && mask.touchesBlockedEdge(u)
			to, w := g.arcs(u)
			w = w[:len(to)]
			for i, x := range to {
				v := NodeID(x - base)
				if sc.state[v] != ispfOrphan || sc.stamp[v] != sc.epoch {
					continue // alive nodes are final; gone nodes stay gone
				}
				if e := MakeEdgeID(u, v); (rowEdges && mask.edges[e]) ||
					(checkRevived && edgeListHas(sc.remEdges, e)) {
					continue
				}
				nd := du + w[i]
				if nd < t.Dist[v] || (nd == t.Dist[v] && u < t.Parent(v)) {
					t.Dist[v] = nd
					t.parent[v] = int32(u)
					sc.queue.Push(heapItem{node: v, dist: nd})
				}
			}
		}
	}

	// --- Phase B: repairs (elements removed from the mask). ---
	// The tree now equals the full sweep under (old mask ∪ added); every
	// distance is an upper bound for the new mask. Seed the revived elements
	// and ripple strict improvements. Equal-distance relaxations only update
	// the parent toward the smaller ID and never propagate: a node whose
	// distance is unchanged keeps its predecessor candidate set except for
	// additions, and every added candidate is either a revived element
	// (seeded here) or a node whose own distance improved (settled by the
	// ripple, which then re-relaxes its neighbors).
	if len(removed) > 0 {
		sc.queue.Reset()
		relax := func(u, v NodeID, w float64) {
			// caller guarantees u reachable and (u,v) usable under mask
			nd := t.Dist[u] + w
			if nd < t.Dist[v] {
				t.Dist[v] = nd
				t.parent[v] = int32(u)
				sc.queue.Push(heapItem{node: v, dist: nd})
			} else if nd == t.Dist[v] && u < t.Parent(v) {
				t.parent[v] = int32(u) // parent-only repair; never propagates
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
			// Revived node: recompute its attachment from scratch via its
			// usable neighbors, then let it ripple outward when it settles.
			v := e.Node
			if !g.valid(v) || mask.NodeBlocked(v) {
				continue
			}
			rowEdges := checkEdges && mask.touchesBlockedEdge(v)
			to, w := g.arcs(v)
			w = w[:len(to)]
			for i, x := range to {
				u := NodeID(x - base)
				if t.Dist[u] == Unreachable {
					continue
				}
				if checkNodes && mask.nodeBlocked(u) {
					continue
				}
				if rowEdges && mask.edges[MakeEdgeID(u, v)] {
					continue
				}
				relax(u, v, w[i])
			}
		}
		settled += sc.ripple(g, t, mask)
	}
	return settled, true
}

// ripple settles the queued nodes of t in (distance, node) order, each once,
// relaxing its live arcs: a strict improvement queues the neighbour, an equal
// distance from a smaller ID takes the parent in place. It is phase B of a
// repair, whose argument needs the settle order, and the fallback of a full
// run (Graph.dijkstra) whose bucketed pass is ruled out or gives up. It
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
		if sc.setB[u] == sc.epoch || item.dist > t.Dist[u] {
			continue
		}
		sc.setB[u] = sc.epoch
		settled++
		du := t.Dist[u]
		rowEdges := checkEdges && mask.touchesBlockedEdge(u)
		to, w := g.arcs(u)
		w = w[:len(to)]
		for i, x := range to {
			v := NodeID(x - base)
			if sc.setB[v] == sc.epoch {
				continue // settled in distance order: final
			}
			if checkNodes && mask.nodeBlocked(v) {
				continue
			}
			if rowEdges && mask.edges[MakeEdgeID(u, v)] {
				continue
			}
			nd := du + w[i]
			if nd < t.Dist[v] {
				t.Dist[v] = nd
				t.parent[v] = int32(u)
				sc.queue.Push(heapItem{node: v, dist: nd})
			} else if nd == t.Dist[v] && u < t.Parent(v) {
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
