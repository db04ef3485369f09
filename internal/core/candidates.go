package core

import (
	"slices"

	"smrp/internal/graph"
)

// Candidate is one admissible way for a joining node to connect to the
// multicast tree: merge at on-tree node Merger via Connection.
type Candidate struct {
	// Merger is the on-tree node where the new path merges into the tree
	// (R_i in the paper).
	Merger graph.NodeID
	// Connection is the off-tree path from Merger to the joining node;
	// Connection[0] == Merger, Connection[len-1] == joiner.
	Connection graph.Path
	// ConnDelay is the total weight of Connection.
	ConnDelay float64
	// TotalDelay is the end-to-end delay of the candidate multicast path:
	// on-tree delay S→Merger plus ConnDelay (D^{R_i}_{S,NR}).
	TotalDelay float64
	// SHR is SHR(S, Merger) at selection time.
	SHR int
}

// delayEps absorbs floating-point noise in delay-bound comparisons.
const delayEps = 1e-9

// pruneSlack widens the sweep budget relative to the delay bound so float
// rounding can never prune a node an admissible connection uses: the sweep
// sums distances joiner-outward, TotalDelay sums tree delay plus connection
// merger-inward, and the two differ by a few ulps per hop. 1e-9 relative is
// orders of magnitude above that; admissibility is still tested exactly.
const pruneSlack = 1e-9

// selection is the Path Selection Criterion (§3.2.2) as a running minimum:
// of the candidates offered, the least among those whose TotalDelay is within
// bound. The order is SHR, then delay, then merger ID; delayFirst drops SHR
// from it, which with bound = +Inf picks the fastest candidate there is — what
// a join takes when nothing is within its bound (the paper leaves that corner
// unspecified; the fastest available path is the SPF-like behaviour).
type selection struct {
	bound      float64
	delayFirst bool
	best       Candidate
	found      bool
}

func (p *selection) offer(c Candidate) {
	if c.TotalDelay <= p.bound+delayEps && (!p.found || less(c, p.best, p.delayFirst)) {
		p.best, p.found = c, true
	}
}

// less orders candidates by SHR, then delay, then merger ID; delayFirst leaves
// SHR out.
func less(a, b Candidate, delayFirst bool) bool {
	if !delayFirst && a.SHR != b.SHR {
		return a.SHR < b.SHR
	}
	if a.TotalDelay != b.TotalDelay {
		return a.TotalDelay < b.TotalDelay
	}
	return a.Merger < b.Merger
}

// selectAmong runs the criterion over candidates already in hand (the query
// scheme's replies).
func selectAmong(cands []Candidate, bound float64, delayFirst bool) (Candidate, bool) {
	pick := selection{bound: bound, delayFirst: delayFirst}
	for _, c := range cands {
		pick.offer(c)
	}
	return pick.best, pick.found
}

// selectBySweep is full-topology enumeration and the criterion in one pass,
// confined to where a candidate within bound can be. One absorbing sweep
// rooted at the joiner — on-tree nodes settle as path endpoints but are never
// relaxed through — yields, for every merger it reaches, the shortest
// connection whose interior avoids the tree: the paper's "all possible paths
// connecting to the current tree" under footnote 4 (only the shortest
// connection per merger is considered). Merger m is within bound when
// treeDelay(m) + conn(m, joiner) ≤ bound. lower holds SPF distances from the
// source on the unmasked graph, so lower[m] ≤ treeDelay(m) and lower[w] ≤
// lower[m] + conn(m, w) for every w on the connection: dist(joiner, w) +
// lower[w] ≤ bound all along it, the sweep need not leave that region
// (graph.Sweep.RunPruned), and inside it everything reads as in the exhaustive
// sweep (DESIGN.md §9.1). bound = +Inf prunes nothing and the sweep is the
// exhaustive one. Either way the winner is the one the reference — every
// connection materialized, then the criterion — picks, bit for bit
// (TestPrunedSelectionMatchesExhaustive).
//
// The source is the one node of the tree with SHR 0 (Eq. 2 adds N_R ≥ 1 at
// every other; the test harnesses' checkSourceAloneAtZero holds every state
// and every reshape view to it), so when SHR comes first a source within
// bound wins whatever else the region holds. That pass names it the sweep's
// goal: once its connection is final and within bound — offer's test, handed
// to the sweep as the weight it may stop at — the selection is decided and the
// source is the one candidate offered. A source the sweep reaches inside the
// prune slack but beyond the bound stops nothing; the same sweep runs on to
// exhaustion as it does when it never settles. Then the candidates are the
// on-tree nodes it absorbed (Sweep.Absorbed), each once, in settle order: the
// tree is never listed. The criterion's order is total and the SHR skip below
// passes over only candidates that cannot win, so the order they come in does
// not change the winner.
//
// Candidates are scored off the sweep — Sweep.WeightFrom is the same float
// as Path.Weight of the materialized merger→joiner connection — and only the
// winner's Connection is built, in the view's buffer: it is the caller's until
// the next selection in a, and a caller that keeps it copies it. mask
// additionally blocks nodes/edges (the
// accumulated failures; for a reshape, the member's own subtree). The joiner
// must be off the tree a's view stands for. A second pass for the same joiner
// reuses a's sweep.
func selectBySweep(a *arena, joiner graph.NodeID, mask *graph.Mask, lower []float64, bound float64, delayFirst bool, stats *Stats) (Candidate, bool) {
	sw, v := a.sw, &a.view
	pick := selection{bound: bound, delayFirst: delayFirst}
	src, goal := v.t.Source(), graph.Invalid
	if !delayFirst {
		goal = src
	}
	atSource := sw.RunPruned(joiner, mask, v.onTree, lower, bound*(1+pruneSlack)+2*delayEps, goal, bound+delayEps)
	stats.EnumSettled += sw.SettledCount()
	mergers := sw.Absorbed()
	if atSource {
		stats.SelectSourceExits++
		mergers = []graph.NodeID{src}
	}
	for _, merger := range mergers {
		stats.CandidatesSeen++
		shr := v.shrAt(merger)
		if !delayFirst && pick.found && shr > pick.best.SHR {
			continue // cannot win whatever its delay: spare the walk up the tree
		}
		treeDelay, err := v.t.DelayTo(merger)
		if err != nil {
			continue
		}
		d := sw.WeightFrom(merger)
		pick.offer(Candidate{Merger: merger, ConnDelay: d, TotalDelay: treeDelay + d, SHR: shr})
	}
	if pick.found {
		v.conn = sw.AppendPathFrom(v.conn[:0], pick.best.Merger) // merger → … → joiner
		pick.best.Connection = v.conn
	}
	return pick.best, pick.found
}

// enumerateQuery generates candidates via the query scheme of §3.3.1: the
// joiner asks each of its graph neighbors to relay a query along the
// neighbor's unicast shortest path toward the source; the first on-tree node
// met answers with its SHR and becomes a candidate merger. Coverage is
// partial by design — the scheme trades optimality for not needing topology
// knowledge. Each relayed query increments stats.QueryMessages.
func enumerateQuery(v *treeView, joiner graph.NodeID, extraMask *graph.Mask, stats *Stats) []Candidate {
	t := v.t
	g := t.Graph()
	src := t.Source()
	best := make(map[graph.NodeID]Candidate)
	for _, arc := range g.Neighbors(joiner) {
		nb := arc.To
		if extraMask.NodeBlocked(nb) || extraMask.EdgeBlocked(joiner, nb) {
			continue
		}
		stats.QueryMessages++
		// The neighbor's own unicast shortest path toward the source.
		spf, _ := g.ShortestPath(nb, src, extraMask)
		if spf == nil {
			continue
		}
		// Walk toward the source until the first on-tree node.
		var merger graph.NodeID = graph.Invalid
		var relay graph.Path
		for _, n := range spf {
			relay = append(relay, n)
			if v.onTree(n) {
				merger = n
				break
			}
		}
		if merger == graph.Invalid {
			continue
		}
		// Candidate connection runs merger → ... → neighbor → joiner.
		conn := append(relay.Reverse(), joiner)
		if !conn.IsSimple() {
			continue // joiner already appears on the relayed prefix
		}
		cd, err := conn.Weight(g)
		if err != nil {
			continue
		}
		treeDelay, err := t.DelayTo(merger)
		if err != nil {
			continue
		}
		cand := Candidate{
			Merger:     merger,
			Connection: conn,
			ConnDelay:  cd,
			TotalDelay: treeDelay + cd,
			SHR:        v.shrAt(merger),
		}
		if prev, ok := best[merger]; !ok || cand.TotalDelay < prev.TotalDelay {
			best[merger] = cand
		}
	}
	out := make([]Candidate, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Candidate) int { return int(a.Merger - b.Merger) })
	return out
}
