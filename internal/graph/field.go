package graph

import (
	"math"
	"sync"
)

// TieSlack is the relative margin within which two distances count as a
// possible tie when they are sums of the same weights taken in opposite
// directions. A Field adds a path's weights seed-outward, a member-rooted
// sweep adds them member-outward, and float addition does not associate: the
// two labels of one path differ by a few ulps per hop, six orders of magnitude
// below this margin on any path the repository's topologies hold.
const TieSlack = 1e-9

// fieldPool recycles Field scratch like sweepPool does sweeps.
var fieldPool = sync.Pool{New: func() any { return new(Field) }}

// Field is an incremental multi-source distance field over the graph minus a
// mask: every node's distance from the nearest seed, where seeds may be added
// at any time. Next hands out finalised nodes in (distance, node) order; a
// seed added later only ever lowers values, so the queue is label-correcting
// and yet keeps Dijkstra's invariant — every node strictly nearer than the
// key Next returned last holds its final value for the seeds so far, and a
// node a new seed brings nearer is handed out again at its new value.
//
// Recovery grows one from the surviving tree (Session.reconnect): the order
// in which it reaches the disconnected members is the order they regraft in,
// and its values confine each member's own sweep (Sweep.NearestWithin).
//
// A Field is not safe for concurrent use. Release it when done.
type Field struct {
	g    *Graph
	mask *Mask
	// dist[v] is v's tentative distance from the nearest seed: +Inf for a node
	// no relaxation has reached — every node, between uses; touched lists the
	// others so that Release resets those alone.
	dist    []float64
	touched []NodeID
	// final[v]: Next has handed v out at dist[v] and nothing has lowered it
	// since.
	final []bool
	queue radixQueue
	pops  int
}

// NewField acquires a pooled, empty field over g minus mask.
func (g *Graph) NewField(mask *Mask) *Field {
	f := fieldPool.Get().(*Field)
	f.g, f.mask = g, mask
	f.queue.Reset()
	if n := g.NumNodes(); n > len(f.dist) {
		f.dist = make([]float64, n)
		for i := range f.dist {
			f.dist[i] = Unreachable
		}
		f.final = make([]bool, n)
	}
	return f
}

// Release empties the field and returns it to the pool. The field must not be
// used afterwards.
func (f *Field) Release() {
	for _, v := range f.touched {
		f.dist[v] = Unreachable
		f.final[v] = false
	}
	f.touched = f.touched[:0]
	f.g, f.mask, f.pops = nil, nil, 0
	fieldPool.Put(f)
}

// lower sets v's tentative distance to d < dist[v] and queues it.
func (f *Field) lower(v NodeID, d float64) {
	if math.IsInf(f.dist[v], 1) {
		f.touched = append(f.touched, v)
	}
	f.dist[v] = d
	f.final[v] = false
	f.queue.Push(heapItem{node: v, dist: d})
}

// Seed puts v at distance 0. A node the mask blocks, like one outside the
// graph, seeds nothing.
func (f *Field) Seed(v NodeID) {
	if f.g.valid(v) && !f.mask.NodeBlocked(v) && f.dist[v] > 0 {
		f.lower(v, 0)
	}
}

// Next finalises the nearest node not finalised yet, relaxes its arcs and
// returns it with its distance — unless that distance exceeds limit, or the
// queue is empty: then ok is false and nothing changes. An empty queue means
// every node the seeds' components hold is final.
func (f *Field) Next(limit float64) (u NodeID, d float64, ok bool) {
	for {
		top, any := f.queue.Peek()
		if !any || top.dist > limit {
			return Invalid, Unreachable, false
		}
		f.queue.Pop()
		u, d = top.node, top.dist
		if d != f.dist[u] || f.final[u] {
			continue // superseded by a lower value, or handed out already
		}
		f.final[u] = true
		f.pops++
		// The mask is read as Sweep.run reads it: blocked nodes are never
		// entered, and the edge map is asked only in rows that touch a
		// blocked edge.
		mask := f.mask
		checkNodes := mask.hasNodeBlocks()
		rowEdges := mask.hasEdgeBlocks() && mask.touchesBlockedEdge(u)
		base := f.g.base
		for _, a := range f.g.adj[u] {
			v := a.To - base
			nd := d + a.Weight
			if nd >= f.dist[v] || (checkNodes && mask.nodeBlocked(v)) || (rowEdges && mask.edges[MakeEdgeID(u, v)]) {
				continue
			}
			f.lower(v, nd)
		}
		return u, d, true
	}
}

// Requeue has Next hand the finalised node v out once more, in its turn: at
// the value it holds, or at a lower one if a seed added meanwhile reaches it
// first. A node that is not final is queued already.
func (f *Field) Requeue(v NodeID) {
	if f.final[v] {
		f.final[v] = false
		f.queue.Push(heapItem{node: v, dist: f.dist[v]})
	}
}

// Dist returns v's tentative distance from the nearest seed, final if Next
// has returned a key beyond it since the last Seed; Unreachable for a node no
// relaxation has reached.
func (f *Field) Dist(v NodeID) float64 { return f.dist[v] }

// Horizon returns the distance below which every value is final: the least
// key queued, Unreachable when the queue is empty.
func (f *Field) Horizon() float64 {
	if top, ok := f.queue.Peek(); ok {
		return top.dist
	}
	return Unreachable
}

// Pops reports how many nodes Next has handed out, re-finalised ones counted
// again: the field's unit of work, as SettledCount is a sweep's.
func (f *Field) Pops() int { return f.pops }

// NearestWithin is the nearest-of sweep from src — first settled node accept
// holds for, src included — confined to what field f says can matter: under
// f's mask, the relaxation u→v is skipped when
//
//	dist(src,v) + min(f.Dist(v), f.Horizon()) > f.Dist(src)·(1+TieSlack).
//
// It presumes accept holds for exactly the seeds of f (so f.Dist(src) is, to
// rounding, the distance the sweep will stop at) and that src is final in f.
// min(field, horizon) is a consistent potential — a distance field capped by
// a constant — and bounds the true field from below at every node, final or
// not; so by RunPruned's argument every node of the region is reached with
// the distance, parent and tie-break of the unconfined sweep, and the region
// holds, with TieSlack to spare, every node that settles on a shortest path
// to a nearest accepted node. The node returned, s.Dist and s.PathTo of it are
// therefore those of Graph.NearestOfCounted, to the bit (FuzzFieldReseed),
// for the price of the paths' neighbourhood instead of the ball's.
//
// It returns the accepted node, or Invalid when src is unreached by f.
func (s *Sweep) NearestWithin(f *Field, src NodeID, accept func(NodeID) bool) NodeID {
	return s.run(src, f.mask, nil, accept, f.dist, f.Horizon(), f.dist[src]*(1+TieSlack), Invalid, 0)
}
