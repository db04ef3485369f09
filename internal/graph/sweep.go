package graph

import "sync"

// sweepPool recycles Sweep scratch state across calls and goroutines. A
// pooled sweep keeps its epoch-stamped arrays and queue storage, so the
// steady-state cost of a sweep is zero heap allocations (see
// TestSweepSteadyStateAllocs).
var sweepPool = sync.Pool{New: func() any { return new(Sweep) }}

// Sweep is a reusable single-source shortest-path computation (the
// repository's Dijkstra core). One Sweep holds the per-run scratch arena —
// epoch-stamped dist/parent/settled arrays plus the radix queue — so that
// repeated runs allocate nothing once warm. NearestOf, the distance fields and
// the candidate enumeration in internal/core execute on this engine; full SPF
// trees (Dijkstra, ShortestPath) are computed on SPTree arrays instead, by a
// bucketed pass without a queue (Graph.dijkstra).
//
// Usage:
//
//	sw := g.NewSweep()
//	defer sw.Release()
//	sw.Run(src, mask, absorbing)   // or internal run variants
//	... sw.Reached / sw.Dist / sw.PathTo ...
//
// Results stay valid until the next Run or Release. A Sweep is not safe for
// concurrent use; acquire one per goroutine (the pool makes that cheap).
type Sweep struct {
	g *Graph
	n int
	// epoch stamps validity: seen[v] == epoch means dist/parent hold values
	// for the current run; settled[v] == epoch means v left the queue at the
	// distance it holds. The stamps make per-run initialization O(1) instead
	// of O(V) clears.
	epoch   uint32
	seen    []uint32
	settled []uint32
	dist    []float64
	parent  []NodeID
	// pw[v] is the weight of the arc parent[v]→v, kept so a path's weight
	// can be summed in path order without materializing it (WeightFrom).
	pw    []float64
	queue radixQueue
	// settledCount tallies nodes settled by the last run. Sweeps do not
	// feed the package-wide SPFNodesSettled counter, which counts only full
	// SPF builds and delta repairs (see metrics.SPFStats).
	settledCount int
	// arcsScanned tallies the arcs the last run's relaxation loop looked at
	// (one add per row): the deterministic measure of what the row cut and
	// the nearest bound save, read by the tests that gate it.
	arcsScanned int
	// scan is the record of the last nearest-of run (accept != nil): every
	// settled node in settle order, pos[v] being v's position in it — what
	// turns a parent node into a parent position.
	scan NearestScan
	pos  []int32
	// absorbed lists the absorbing nodes the last run settled, each once:
	// listed[v] == epoch once v is in it, so that a node a directed run
	// settles again is not listed again. Only an absorbing run allocates it.
	absorbed []NodeID
	listed   []uint32
	// What Relabels reports of the last run, counted where the relabelling
	// is done and nowhere else; goalAt is settledCount as the goal settled.
	requeued, reparented, goalAt int
}

// NewSweep acquires a pooled sweep bound to g. Release it when done.
func (g *Graph) NewSweep() *Sweep {
	s := sweepPool.Get().(*Sweep)
	s.g = g
	return s
}

// Release returns the sweep (and its scratch arrays) to the pool. The sweep
// must not be used afterwards.
func (s *Sweep) Release() {
	s.g = nil
	sweepPool.Put(s)
}

// begin prepares the scratch arena for a fresh run: grow arrays to the
// graph's size if needed and advance the validity epoch.
func (s *Sweep) begin() {
	n := s.g.NumNodes()
	if n > len(s.seen) {
		s.seen = make([]uint32, n)
		s.settled = make([]uint32, n)
		s.dist = make([]float64, n)
		s.parent = make([]NodeID, n)
		s.pw = make([]float64, n)
		s.listed = nil // its stamps are of the epochs being reset
		s.epoch = 0
	}
	s.n = n
	s.epoch++
	if s.epoch == 0 { // epoch counter wrapped: stamps are ambiguous, reset
		clear(s.seen)
		clear(s.settled)
		clear(s.listed)
		s.epoch = 1
	}
	s.queue.Reset()
	s.settledCount = 0
	s.arcsScanned = 0
	s.requeued, s.reparented, s.goalAt = 0, 0, 0
	s.scan = s.scan[:0]
	s.absorbed = s.absorbed[:0]
}

// Run executes a full deterministic Dijkstra sweep from src over the graph
// minus the mask, with optional absorbing semantics: when absorbing is
// non-nil, nodes for which it reports true are settled as path endpoints but
// never relaxed through — paths may end at an absorbing node yet cannot pass
// beyond one. This answers "shortest connection from src to every node of a
// set, with set-interior-free paths" in a single O(E log V) pass; the SMRP
// candidate enumeration uses it with absorbing = tree membership. src itself
// is always relaxed outward even if absorbing(src) holds (it is the path
// start, not an endpoint).
//
// Tie-breaking matches Graph.Dijkstra exactly: equal-distance queue entries
// settle in ascending node order, and among equal-length relaxations the
// smallest parent ID wins, so results are byte-stable across runs.
func (s *Sweep) Run(src NodeID, mask *Mask, absorbing func(NodeID) bool) {
	s.run(src, mask, absorbing, nil, nil, Unreachable, Unreachable, Invalid, 0)
}

// RunPruned is Run confined to the region a delay budget can use, grown toward
// a goal. The relaxation u→v is skipped when dist(src,v) + lower[v] > budget,
// where lower[v] ≥ 0 bounds from below whatever a caller will add to a path
// ending at v (nil reads as all zeros: a plain radius cut). lower must be
// consistent over every arc the sweep may take — lower[u] ≤ w(u,v) + lower[v]
// — which shortest-path distances from any fixed node are. Then every node on
// a shortest path to an in-region node is itself in-region, so each node v
// with dist(src,v) + lower[v] ≤ budget is reached with exactly the distance,
// parent and tie-break Run gives it, and no other node is reached at all.
//
// The queue is keyed by that same sum, dist(src,v) + lower[v] — A* under the
// potential the region is cut by — so the sweep grows ellipse by ellipse
// instead of ball by ball. lower is consistent only up to a rounding per arc,
// hence the queue is label-correcting: a settled node a later relaxation
// lowers is queued again, and one it reaches at the same distance from a
// smaller parent ID takes that parent where it stands. Run to exhaustion the
// fixpoint is the one above, whatever the order. The candidate sweep of a join
// runs in this mode with lower = SPF distance from the session source and
// budget = the join's delay bound, the ellipse with foci source and joiner.
//
// With a goal, the sweep stops once goal has settled, at key K, and the queue
// holds nothing at or below K·(1+TieSlack): every node on a shortest path to
// goal, and every equal-distance parent of one, has a key of at most K but for
// the rounding TieSlack covers, so goal's distance, parent chain and
// tie-breaks are final, as is everything else keyed at or below K. The stop
// is taken, and reported, only if WeightFrom(goal) ≤ within — a caller's own
// admissibility test, which sums the path the other way round and so cannot be
// folded into the budget; declined, the same sweep runs on to exhaustion
// (DESIGN.md §9.1). goal = Invalid asks for no stop.
func (s *Sweep) RunPruned(src NodeID, mask *Mask, absorbing func(NodeID) bool, lower []float64, budget float64, goal NodeID, within float64) bool {
	return s.run(src, mask, absorbing, nil, lower, Unreachable, budget, goal, within) != Invalid
}

// SettledCount reports how many nodes the last run settled, one settled again
// after a relaxation lowered it counted again — the unit of SPF work this
// repository uses as its CI-stable performance evidence (wall-clock is noise
// on a single-core container; settled nodes are exact and deterministic).
func (s *Sweep) SettledCount() int { return s.settledCount }

// Absorbed lists the absorbing nodes the last run settled, in the order they
// first settled, each once however often a directed run settled it. After a
// run to exhaustion these are exactly the absorbing nodes it reached. The
// slice is the sweep's own, valid until the next run.
func (s *Sweep) Absorbed() []NodeID { return s.absorbed }

// Relabels reports where the last goal-directed run left label-setting
// order: nodes queued again after they had settled, settled nodes that took a
// smaller parent at the distance they held, and — after a stop at the goal —
// nodes settled behind it while its level drained. The harnesses of the sweep
// and of the selection assert that their inputs reach all three.
func (s *Sweep) Relabels() (requeued, reparented, drained int) {
	if s.goalAt > 0 {
		drained = s.settledCount - s.goalAt
	}
	return s.requeued, s.reparented, drained
}

// run is the shared sweep core. Knobs:
//
//   - absorbing != nil: absorbing nodes settle but do not relax outward.
//   - accept != nil: stop at the first settled node for which accept holds
//     (including src) and return it; the run is recorded in s.scan. accept
//     is also asked about nodes as they are relaxed (see bound below), so it
//     must be a pure predicate.
//   - budget < Unreachable: skip relaxations that leave the budget's region
//     (see RunPruned); lower may be nil, and reads as min(lower[v], ceil) — the
//     cap a potential needs whose far values are not final (NearestWithin).
//     Unless the run is a nearest-of scan, whose record is its settle order
//     by distance, a potential also keys the queue and makes it
//     label-correcting (directed below).
//   - goal != Invalid: stop once goal is final and weighs at most within (see
//     RunPruned), and return it.
//
// bound is the distance past which a relaxation cannot matter: the budget,
// tightened in nearest-of mode to the tentative distance of the closest
// accepted node relaxed so far. A node farther than that can never settle
// before the accepted one does, so dropping it changes neither the node
// returned nor one entry of the record; a node exactly at the bound is kept,
// because a smaller ID at the same distance settles first.
// Rows are sorted by weight, so the first arc past the bound ends the row.
//
// It returns the settled accept/goal node, or Invalid when the sweep ran to
// exhaustion without one (or src was invalid/blocked).
func (s *Sweep) run(src NodeID, mask *Mask, absorbing func(NodeID) bool, accept func(NodeID) bool, lower []float64, ceil, budget float64, goal NodeID, within float64) NodeID {
	s.begin()
	g := s.g
	if !g.valid(src) || mask.NodeBlocked(src) {
		return Invalid
	}
	base := g.base
	// Hoist the mask shape checks out of the relaxation loop: most sweeps
	// run against a nil/empty mask (plain SPF) or a node-only mask
	// (candidate enumeration), and the edge map is the loop's only
	// non-array memory traffic. Its probe, a hashed struct key, is confined
	// to the rows that touch a blocked edge (rowEdges below): for one cut
	// link, two rows. The node probe is a shift+and on the mask's word
	// array; with no node blocked mbits is nil and its bounds test fails at
	// once.
	checkEdges := mask.hasEdgeBlocks()
	var mbits []uint64
	if mask.hasNodeBlocks() {
		mbits = mask.bits
	}
	prune := lower != nil && budget < Unreachable
	directed := prune && accept == nil
	bound := budget
	// level is the key the queue must drain to before the goal is final:
	// Unreachable until it settles.
	level := Unreachable
	if accept != nil && len(s.pos) < s.n {
		s.pos = make([]int32, s.n)
	}
	if absorbing != nil && len(s.listed) < s.n {
		s.listed = make([]uint32, s.n)
	}

	s.seen[src] = s.epoch
	s.dist[src] = 0
	s.parent[src] = Invalid
	key := 0.0
	if directed {
		key = min(lower[src], ceil)
	}
	s.queue.Push(heapItem{node: src, dist: key})

	for {
		item, ok := s.queue.Pop()
		if !ok || item.dist > level {
			// Exhausted, whatever was reached has settled; past a level, the
			// goal has.
			if s.Reached(goal) && s.WeightFrom(goal) <= within {
				return goal
			}
			if !ok {
				return Invalid
			}
			goal, level = Invalid, Unreachable // declined: on to exhaustion
		}
		u := item.node
		if s.settled[u] == s.epoch {
			// A stale entry: u settled off one at least as low, and nothing
			// has lowered it since, or the stamp would be gone.
			continue
		}
		s.settled[u] = s.epoch
		s.settledCount++
		if accept != nil {
			// u's parent settled before u, so its pos is of this run.
			par := int32(-1)
			if p := s.parent[u]; p != Invalid {
				par = s.pos[p]
			}
			s.pos[u] = int32(len(s.scan))
			s.scan = append(s.scan, ScanNode{Node: u, Parent: par, Dist: s.dist[u]})
			if accept(u) {
				return u
			}
		}
		if u == goal {
			level = item.dist * (1 + TieSlack)
			s.goalAt = s.settledCount
		}
		if absorbing != nil && u != src && absorbing(u) {
			if s.listed[u] != s.epoch {
				s.listed[u] = s.epoch
				s.absorbed = append(s.absorbed, u)
			}
			continue // settled as an endpoint; never relax through
		}
		du := s.dist[u]
		rowEdges := checkEdges && mask.touchesBlockedEdge(u)
		to, w := g.arcs(u)
		w = w[:len(to)]
		scanned := len(to)
		for i, t := range to {
			v := NodeID(t - base)
			nd := du + w[i]
			if nd > bound {
				scanned = i + 1 // scanned, like the arcs before it
				break
			}
			// In distance order a settled node is final. Under a potential it
			// may yet be lowered, or take a smaller parent — which the two
			// array reads rule out before the mask is asked.
			if s.settled[v] == s.epoch && (!directed || nd > s.dist[v]) {
				continue
			}
			if w := uint(v) >> 6; w < uint(len(mbits)) && mbits[w]>>(uint(v)&63)&1 != 0 {
				continue
			}
			if rowEdges && mask.edges[MakeEdgeID(u, v)] {
				continue
			}
			if s.seen[v] == s.epoch && nd >= s.dist[v] {
				// Deterministic tie-breaking on parent ID keeps shortest-path
				// trees stable when multiple equal-length paths exist. v keeps
				// its distance, so the entry it has, or settled off, stands.
				if nd == s.dist[v] && u < s.parent[v] {
					s.parent[v] = u
					s.pw[v] = w[i]
					if s.settled[v] == s.epoch {
						s.reparented++
					}
				}
				continue
			}
			// After the test above: only improvements pay for these.
			key = nd
			if prune {
				lv := lower[v]
				if lv > ceil {
					lv = ceil
				}
				if nd+lv > budget {
					continue
				}
				if directed {
					key = nd + lv
				}
			}
			if nd < bound && accept != nil && accept(v) {
				bound = nd
			}
			if s.settled[v] == s.epoch {
				s.settled[v] = 0 // no run's stamp: begin never hands out epoch 0
				s.requeued++
			}
			s.seen[v] = s.epoch
			s.dist[v] = nd
			s.parent[v] = u
			s.pw[v] = w[i]
			s.queue.Push(heapItem{node: v, dist: key})
		}
		s.arcsScanned += scanned
	}
}

// Reached reports whether n was reached by the last run: relaxed to, settled
// or not. (After an early exit only the node the run stopped at, and what
// its contract says is final with it, is meaningful.)
func (s *Sweep) Reached(n NodeID) bool {
	return n >= 0 && int(n) < s.n && s.seen[n] == s.epoch
}

// Dist returns the shortest distance from the run's source to n, or
// Unreachable when n was not reached.
func (s *Sweep) Dist(n NodeID) float64 {
	if !s.Reached(n) {
		return Unreachable
	}
	return s.dist[n]
}

// chainLen returns the number of nodes on the parent chain from n to the
// source, or 0 when unreached.
func (s *Sweep) chainLen(n NodeID) int {
	if !s.Reached(n) {
		return 0
	}
	ln := 0
	for cur := n; cur != Invalid; cur = s.parent[cur] {
		ln++
	}
	return ln
}

// WeightFrom returns the weight of AppendPathFrom(nil, n) without
// materializing it: the parent-arc weights summed from n toward the source,
// the same terms in the same order as that path's Weight, hence the same
// float. Unreachable when n was not reached.
func (s *Sweep) WeightFrom(n NodeID) float64 {
	if !s.Reached(n) {
		return Unreachable
	}
	var total float64
	for cur := n; s.parent[cur] != Invalid; cur = s.parent[cur] {
		total += s.pw[cur]
	}
	return total
}

// PathTo returns the shortest path source→…→n, or nil when unreached.
func (s *Sweep) PathTo(n NodeID) Path {
	ln := s.chainLen(n)
	if ln == 0 {
		return nil
	}
	p := make(Path, ln)
	for cur, i := n, ln-1; cur != Invalid; cur, i = s.parent[cur], i-1 {
		p[i] = cur
	}
	return p
}

// AppendPathFrom appends the shortest path in n→…→source orientation to buf
// and returns it, allocating only if buf lacks capacity; buf comes back
// unchanged when n is unreached. The candidate enumeration uses this to
// materialize merger→…→joiner connections directly from a joiner-rooted
// sweep.
func (s *Sweep) AppendPathFrom(buf Path, n NodeID) Path {
	if !s.Reached(n) {
		return buf
	}
	for cur := n; cur != Invalid; cur = s.parent[cur] {
		buf = append(buf, cur)
	}
	return buf
}
