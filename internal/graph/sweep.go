package graph

import (
	"math"
	"slices"
	"sync"
)

// sweepPool recycles Sweep scratch state across calls and goroutines. A
// pooled sweep keeps its epoch-stamped arrays and queue storage, so the
// steady-state cost of a sweep is zero heap allocations (see
// TestSweepSteadyStateAllocs).
var sweepPool = sync.Pool{New: func() any { return new(Sweep) }}

// Sweep is a reusable single-source shortest-path computation (the
// repository's Dijkstra core). One Sweep holds the per-run scratch arena —
// epoch-stamped dist/parent/settled arrays plus the radix queue and the
// buckets of the directed pass — so that repeated runs allocate nothing once
// warm. NearestOf, the distance fields, the point queries (RunToward, RunFrom,
// ShortestPath) and the candidate enumeration in internal/core execute on this
// engine, the last two on buckets (RunPruned); full SPF trees (Dijkstra) are
// computed on SPTree arrays instead, by a bucketed pass of their own
// (Graph.dijkstra).
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
	// SPF builds (see metrics.SPFStats).
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
	// is done; drained counts the settles since the goal last settled.
	requeued, reparented, drained int
	// reach lists, once each, the nodes a directed or goal run reached, which
	// tally reads its counts off. buckets is the bucketed pass's circular
	// array of node stacks and deferred the nodes it popped above a goal's
	// level. A pass that returns leaves every bucket empty; dirty is set
	// while one runs, so that the next clears what a pass cut short by a
	// panic (in absorbing, say) left.
	reach    []int32
	buckets  [][]int32
	deferred []int32
	dirty    bool
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
	s.requeued, s.reparented, s.drained = 0, 0, 0
	s.scan = s.scan[:0]
	s.absorbed = s.absorbed[:0]
	s.reach = s.reach[:0]
	s.deferred = s.deferred[:0]
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
// The run is ordered by that same sum, dist(src,v) + lower[v] — A* under the
// potential the region is cut by — so the sweep grows ellipse by ellipse
// instead of ball by ball. lower is consistent only up to a rounding per arc,
// hence the run is label-correcting: a settled node a later relaxation lowers
// is queued again, and one it reaches at the same distance from a smaller
// parent ID takes that parent where it stands. Run to exhaustion the fixpoint
// is the one above, whatever the order. So the order need only be close: with
// a potential and a budget the run drains buckets of keys (runBuckets) where
// the graph has a full run's bucket width (setStep) and lower[src] is within
// the budget, and keeps to the radix queue otherwise — the same results and
// the same counts either way (TestPrunedSweepMatchesRadix). Where the graph
// has no bucket width, adding a weight to a distance may leave it unchanged,
// and a settled node taking an equal-distance parent where it stands could
// close a parent cycle; there the pruned run keeps to distance order,
// label-setting as Run is, its keys the distances. The candidate sweep of a
// join runs in this mode with lower = SPF distance from the session source
// and budget = the join's delay bound, the ellipse with foci source and
// joiner.
//
// With a goal, the sweep stops once goal has settled, at key K, and nothing at
// or below K·(1+TieSlack) is left to settle: every node on a shortest path to
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

// RunToward is the point query: a run from src that stops once dst is final,
// under the potential of dst's healthy tree, Dijkstra(dst, nil).Dist. A mask
// only removes arcs, so healthy distances to dst are consistent on every
// masked graph, and the run settles little more than the path when the
// failures are off it (ALT with dst as the one landmark, Goldberg &
// Harrelson). By RunPruned's contract dst's distance, parent chain and
// tie-breaks are those of a full run from src: Dist(dst) and PathTo(dst) are
// what Dijkstra(src, mask) gives. The budget is finite because with an
// infinite one RunPruned neither prunes nor orders by the potential. It
// reports whether dst was reached.
func (s *Sweep) RunToward(src, dst NodeID, mask *Mask) bool {
	if !s.g.valid(src) || !s.g.valid(dst) {
		s.begin()
		return false
	}
	return s.RunPruned(src, mask, nil, s.g.Dijkstra(dst, nil).Dist, math.MaxFloat64, dst, Unreachable)
}

// RunFrom is the point query with src's healthy tree as the landmark instead
// of dst's, for a caller that holds the one but not the other: the same
// results as RunToward(src, dst, mask) — Dist(dst) and PathTo(dst) are
// Dijkstra(src, mask)'s, bit for bit — from two runs instead of one.
//
// A run from dst toward src (RunToward) leaves final its distance to every
// node keyed at or below src's level, K·(1+TieSlack), and these include every
// node of every path from src to dst within TieSlack of the shortest, whatever
// order their weights are summed in. Those distances, +Inf at every other node
// it reached, are the potential of a run from src to dst under the budget
// K·(1+TieSlack): consistent over every arc that run can take, so by
// RunPruned's contract it settles dst as a full run from src does, having
// reached little more than those paths. The first run alone does not suffice:
// summed from the src end, two paths of equal length can differ by a rounding,
// and only a run from src picks the one Dijkstra(src, mask) picks.
//
// The run from src relaxes arcs only out of nodes the first run left final,
// each of which that run relaxed in full, so it never reads a distance the
// first run did not write. SettledCount counts the nodes of both runs. It
// reports whether dst was reached.
func (s *Sweep) RunFrom(src, dst NodeID, mask *Mask) bool {
	back := s.g.NewSweep()
	defer back.Release()
	if !back.RunToward(dst, src, mask) {
		s.begin()
		return false
	}
	lower, level := s.g.Dijkstra(src, nil).Dist, back.dist[src]*(1+TieSlack)
	for _, v := range back.reach {
		if back.dist[v]+lower[v] > level {
			back.dist[v] = Unreachable
		}
	}
	reached := s.RunPruned(src, mask, nil, back.dist, level, dst, Unreachable)
	s.settledCount += back.settledCount
	return reached
}

// SettledCount reports how many distinct nodes the last run left final: after
// a run to exhaustion every node it reached; after a stop at a goal every node
// keyed at or below the goal's level, and after one at an accepted node every
// node settled up to it. It counts neither a node settled again nor one
// settled above a goal's level, so it depends on neither the queue nor the
// bucket width — the unit of SPF work this repository uses as its CI-stable
// performance evidence (wall-clock is noise on a single-core container;
// settled nodes are exact and deterministic).
func (s *Sweep) SettledCount() int { return s.settledCount }

// Absorbed lists the absorbing nodes the last run settled, each once however
// often a directed run settled it, in the order they first settled, which the
// queue or the buckets set. After a run to exhaustion these are exactly the
// absorbing nodes it reached; after a stop at a goal, those keyed at or below
// its level. The slice is the sweep's own, valid until the next run.
func (s *Sweep) Absorbed() []NodeID { return s.absorbed }

// Relabels reports where the last goal-directed run left label-setting
// order: nodes queued again after they had settled, settled nodes that took a
// smaller parent at the distance they held, and — after a stop at the goal —
// nodes settled behind it while its level drained. All three are counts of
// the run's order, which the queue or the buckets set, unlike SettledCount.
// The harnesses of the sweep and of the selection assert that their inputs
// reach all three.
func (s *Sweep) Relabels() (requeued, reparented, drained int) {
	return s.requeued, s.reparented, s.drained
}

// run is the shared sweep entry. Knobs:
//
//   - absorbing != nil: absorbing nodes settle but do not relax outward.
//   - accept != nil: stop at the first settled node for which accept holds
//     (including src) and return it; the run is recorded in s.scan. accept
//     is also asked about nodes as they are relaxed (see runQueue's bound),
//     so it must be a pure predicate.
//   - budget < Unreachable: skip relaxations that leave the budget's region
//     (see RunPruned); lower may be nil, and reads as min(lower[v], ceil) — the
//     cap a potential needs whose far values are not final (NearestWithin).
//     Unless the run is a nearest-of scan, whose record is its settle order
//     by distance, or the graph has no bucket width (see RunPruned), a
//     potential also orders the run and makes it label-correcting: the run
//     is directed.
//   - goal != Invalid: stop once goal is final and weighs at most within (see
//     RunPruned), and return it.
//
// A directed run goes to the bucketed pass where it can (runBuckets), any
// other to the radix queue (runQueue).
//
// It returns the settled accept/goal node, or Invalid when the sweep ran to
// exhaustion without one (or src was invalid/blocked).
func (s *Sweep) run(src NodeID, mask *Mask, absorbing func(NodeID) bool, accept func(NodeID) bool, lower []float64, ceil, budget float64, goal NodeID, within float64) NodeID {
	if accept == nil && lower != nil && ceil == Unreachable && budget < Unreachable && s.g.stepInv > 0 && s.g.valid(src) && lower[src] <= budget {
		return s.runBuckets(src, mask, absorbing, lower, budget, goal, within)
	}
	return s.runQueue(src, mask, absorbing, accept, lower, ceil, budget, goal, within)
}

// runQueue is run on the radix queue, in (key, node) order.
//
// bound is the distance past which a relaxation cannot matter: the budget,
// tightened in nearest-of mode to the tentative distance of the closest
// accepted node relaxed so far. A node farther than that can never settle
// before the accepted one does, so dropping it changes neither the node
// returned nor one entry of the record; a node exactly at the bound is kept,
// because a smaller ID at the same distance settles first.
// Rows are sorted by weight, so the first arc past the bound ends the row.
func (s *Sweep) runQueue(src NodeID, mask *Mask, absorbing func(NodeID) bool, accept func(NodeID) bool, lower []float64, ceil, budget float64, goal NodeID, within float64) NodeID {
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
	directed := prune && accept == nil && g.stepInv > 0
	// keyLower is what a key adds to a distance, for tally; a directed or
	// goal run lists what it reaches for it.
	var keyLower []float64
	if directed {
		keyLower = lower
	}
	track := directed || goal != Invalid
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
	if track {
		s.reach = append(s.reach, int32(src))
	}
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
				s.tally(keyLower, goal, level)
				return goal
			}
			if !ok {
				if track {
					s.tally(keyLower, Invalid, Unreachable)
				}
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
			level, s.drained = item.dist*(1+TieSlack), 0
		} else if level < Unreachable {
			s.drained++
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
			if track && s.seen[v] != s.epoch {
				s.reach = append(s.reach, int32(v))
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

// runBuckets is run's directed mode as a label-correcting pass over buckets
// of keys, with no priority queue (DESIGN.md §9.1). Bucket k holds the nodes
// pushed at a key κ with ⌊(κ − lower[src])·inv⌋ = k, where inv is four times
// the graph's full-run 1/Δ (setStep); a push below the bucket being drained
// goes into that bucket, which absorbs the potential's rounding. The buckets
// are a circular array of eight times the full run's count: a key exceeds
// the key it was pushed from by at most twice the arc's weight (lower is
// consistent), so no bucket holds nodes of two turns of the array. Each
// bucket drains as a stack, and an entry whose node has settled since it was
// pushed is stale and skipped. Relaxation is runQueue's.
//
// Once the goal settles at key K the level is K·(1+TieSlack): a node popped
// above it is deferred, not expanded, and once the level's bucket has drained
// every node keyed at or below it has settled for the last time, as in the
// queue's order. The goal is then returned if it weighs at most within;
// declined, the deferred nodes are pushed again and the pass runs on to
// exhaustion.
func (s *Sweep) runBuckets(src NodeID, mask *Mask, absorbing func(NodeID) bool, lower []float64, budget float64, goal NodeID, within float64) NodeID {
	s.begin()
	g := s.g
	if mask.NodeBlocked(src) {
		return Invalid
	}
	base := g.base
	checkEdges := mask.hasEdgeBlocks()
	var mbits []uint64
	if mask.hasNodeBlocks() {
		mbits = mask.bits
	}
	if absorbing != nil && len(s.listed) < s.n {
		s.listed = make([]uint32, s.n)
	}
	inv, wrap := 4*g.stepInv, 8*(g.stepWrap+1)-1
	for len(s.buckets) <= wrap {
		s.buckets = append(s.buckets, nil)
	}
	if s.dirty {
		for i := range s.buckets {
			s.buckets[i] = s.buckets[i][:0]
		}
	}
	s.dirty = true
	buckets := s.buckets[:wrap+1]
	// Keys are bucketed from the source's, which opens bucket 0.
	origin := lower[src]
	s.seen[src] = s.epoch
	s.dist[src] = 0
	s.parent[src] = Invalid
	s.reach = append(s.reach, int32(src))
	buckets[0] = append(buckets[0], int32(src))
	queued := 1
	// level is the goal's level once it has settled, Unreachable until then,
	// and stop the bucket that holds it.
	level, stop := Unreachable, math.MaxInt
	for k := 0; ; k++ {
		if k > stop || queued == 0 {
			if level < Unreachable {
				if s.WeightFrom(goal) <= within {
					for j := k; queued > 0; j++ {
						queued -= len(buckets[j&wrap])
						buckets[j&wrap] = buckets[j&wrap][:0]
					}
					s.dirty = false
					s.tally(lower, goal, level)
					return goal
				}
				// Declined: on to exhaustion. The deferred nodes were pushed
				// at or below the level's bucket, so they go into this one.
				goal, level, stop = Invalid, Unreachable, math.MaxInt
				buckets[k&wrap] = append(buckets[k&wrap], s.deferred...)
				queued += len(s.deferred)
				s.deferred = s.deferred[:0]
			}
			if queued == 0 {
				s.dirty = false
				s.tally(lower, Invalid, Unreachable)
				return Invalid
			}
		}
		b := &buckets[k&wrap]
		for len(*b) > 0 {
			u := NodeID((*b)[len(*b)-1])
			*b = (*b)[:len(*b)-1]
			queued--
			if s.settled[u] == s.epoch {
				continue // stale: u settled off a later push
			}
			du := s.dist[u]
			if key := du + lower[u]; key > level {
				s.deferred = append(s.deferred, int32(u))
				continue
			} else if u == goal {
				level, s.drained = key*(1+TieSlack), 0
				stop = int((level - origin) * inv)
			} else if level < Unreachable {
				s.drained++
			}
			s.settled[u] = s.epoch
			if absorbing != nil && u != src && absorbing(u) {
				if s.listed[u] != s.epoch {
					s.listed[u] = s.epoch
					s.absorbed = append(s.absorbed, u)
				}
				continue // settled as an endpoint; never relax through
			}
			rowEdges := checkEdges && mask.touchesBlockedEdge(u)
			to, w := g.arcs(u)
			w = w[:len(to)]
			scanned := len(to)
			for i, t := range to {
				v := NodeID(t - base)
				nd := du + w[i]
				if nd > budget {
					scanned = i + 1
					break
				}
				// Farther than v stands, settled or not: nothing to ask the
				// mask about.
				seen := s.seen[v] == s.epoch
				if seen && nd > s.dist[v] {
					continue
				}
				if w := uint(v) >> 6; w < uint(len(mbits)) && mbits[w]>>(uint(v)&63)&1 != 0 {
					continue
				}
				if rowEdges && mask.edges[MakeEdgeID(u, v)] {
					continue
				}
				if seen && nd == s.dist[v] {
					if u < s.parent[v] {
						s.parent[v] = u
						s.pw[v] = w[i]
						if s.settled[v] == s.epoch {
							s.reparented++
						}
					}
					continue
				}
				key := nd + lower[v]
				if key > budget {
					continue
				}
				if !seen {
					s.seen[v] = s.epoch
					s.reach = append(s.reach, int32(v))
				} else if s.settled[v] == s.epoch {
					s.settled[v] = 0 // no run's stamp: begin never hands out epoch 0
					s.requeued++
				}
				s.dist[v] = nd
				s.parent[v] = u
				s.pw[v] = w[i]
				// Never below the bucket in drain, never a turn of the array
				// ahead of it (which a consistent lower keeps a push from).
				kb := k + wrap
				if f := (key - origin) * inv; f < float64(kb) {
					kb = max(int(f), k)
				}
				buckets[kb&wrap] = append(buckets[kb&wrap], int32(v))
				queued++
			}
			s.arcsScanned += scanned
		}
	}
}

// tally ends a directed or goal run, from the nodes it reached: a run that
// stopped at goal counts those keyed — dist plus lower, nil reading as zeros —
// at or below level and keeps Absorbed to them; a run that did not (goal
// Invalid) counts every node it reached, and nothing drained.
func (s *Sweep) tally(lower []float64, goal NodeID, level float64) {
	if goal == Invalid {
		s.settledCount, s.drained = len(s.reach), 0
		return
	}
	s.settledCount = 0
	for _, v := range s.reach {
		if s.key(lower, NodeID(v)) <= level {
			s.settledCount++
		}
	}
	s.absorbed = slices.DeleteFunc(s.absorbed, func(v NodeID) bool { return s.key(lower, v) > level })
}

// key is v's key in the last run: its distance, plus lower[v] unless lower is
// nil.
func (s *Sweep) key(lower []float64, v NodeID) float64 {
	if lower == nil {
		return s.dist[v]
	}
	return s.dist[v] + lower[v]
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
