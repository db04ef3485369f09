package core

import (
	"slices"

	"smrp/internal/graph"
	"smrp/internal/multicast"
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

// enumerateFull generates one candidate per on-tree node R: the shortest
// path from R to joiner that avoids every *other* on-tree node (so the
// candidate genuinely merges at R), realizing the paper's "all possible
// paths connecting to the current tree" under footnote 4 (only the shortest
// connection per merger is considered).
//
// It runs as a single absorbing Dijkstra sweep rooted at the joiner: on-tree
// nodes settle as path endpoints but are never relaxed through, so one
// O(E log V) pass yields, for every merger simultaneously, the shortest
// connection whose interior avoids the tree. On an undirected graph this is
// exactly the per-merger formulation above — a connection's interior is
// off-tree in both views, and Dijkstra's optimality applies per endpoint —
// but without the old per-merger full Dijkstra plus O(|tree|) mask clone
// (O(|tree|·E log V) per join).
//
// ConnDelay is recomputed from the materialized merger→joiner path with
// Path.Weight rather than read off the sweep's joiner-rooted accumulation,
// keeping the float left-to-right summation order — and therefore every
// downstream selection decision — bit-identical to the per-merger version.
//
// extraMask additionally blocks nodes/edges (used by reshaping to keep the
// member's own subtree out of the new path). The joiner must be off-tree.
//
// Exhaustive, every connection materialized: joins come here only when
// selectInBudget found nothing within the bound, and tests use it as the
// reference for that pass.
func enumerateFull(t *multicast.Tree, joiner graph.NodeID, shr shrVals, extraMask *graph.Mask, stats *Stats) []Candidate {
	g := t.Graph()
	sw := g.NewSweep()
	defer sw.Release()
	treeNodes := t.Nodes()
	out := make([]Candidate, 0, len(treeNodes))

	sw.Run(joiner, extraMask, t.OnTree)
	if stats != nil {
		stats.EnumSettled += sw.SettledCount()
	}

	for _, merger := range treeNodes {
		if extraMask.NodeBlocked(merger) || !sw.Reached(merger) {
			continue
		}
		conn := sw.PathFrom(merger) // merger → … → joiner
		d, err := conn.Weight(g)
		if err != nil {
			continue
		}
		treeDelay, err := t.DelayTo(merger)
		if err != nil {
			continue
		}
		out = append(out, Candidate{
			Merger:     merger,
			Connection: conn,
			ConnDelay:  d,
			TotalDelay: treeDelay + d,
			SHR:        shr.at(merger),
		})
	}
	return out
}

// pruneSlack widens the sweep budget relative to the delay bound so float
// rounding can never prune a node an admissible connection uses: the sweep
// sums distances joiner-outward, TotalDelay sums tree delay plus connection
// merger-inward, and the two differ by a few ulps per hop. 1e-9 relative is
// orders of magnitude above that; admissibility is still tested exactly.
const pruneSlack = 1e-9

// selectInBudget is enumeration and the Path Selection Criterion in one
// pass, confined to where an admissible candidate can be. Merger m is
// admissible when treeDelay(m) + conn(m, joiner) ≤ bound = (1+dThresh)·
// spfDelay. lower holds SPF distances from the source on the unmasked graph,
// so lower[m] ≤ treeDelay(m) and lower[w] ≤ lower[m] + conn(m, w) for every
// w on the connection: dist(joiner, w) + lower[w] ≤ bound all along it, the
// sweep need not leave that region (graph.Sweep.RunPruned), and inside it
// everything reads as in the exhaustive sweep. The winner is therefore the
// one selectCandidate picks from enumerateFull's output, bit for bit
// (TestPrunedSelectionMatchesExhaustive; DESIGN.md §9.1). A nil lower prunes
// on radius alone.
//
// Candidates are scored off the sweep — Sweep.WeightFrom is the same float
// as Path.Weight of the materialized connection — and only the winner's
// Connection is built. found is false when nothing is within the bound; the
// caller decides what that means (join: exhaustive min-delay fallback;
// reshape: stay put). A nil sw is acquired here.
func selectInBudget(sw *graph.Sweep, t *multicast.Tree, joiner graph.NodeID, shr shrVals, mask *graph.Mask, lower []float64, spfDelay, dThresh float64, stats *Stats) (best Candidate, found bool) {
	if sw == nil {
		sw = t.Graph().NewSweep()
		defer sw.Release()
	}
	bound := (1 + dThresh) * spfDelay
	sw.RunPruned(joiner, mask, t.OnTree, lower, bound*(1+pruneSlack)+2*delayEps)
	stats.EnumSettled += sw.SettledCount()
	for _, merger := range t.Nodes() {
		if !sw.Reached(merger) {
			continue
		}
		treeDelay, err := t.DelayTo(merger)
		if err != nil {
			continue
		}
		stats.CandidatesSeen++
		d := sw.WeightFrom(merger)
		c := Candidate{Merger: merger, ConnDelay: d, TotalDelay: treeDelay + d, SHR: shr.at(merger)}
		if c.TotalDelay <= bound+delayEps && (!found || less(c, best, false)) {
			best, found = c, true
		}
	}
	if found {
		best.Connection = sw.PathFrom(best.Merger) // merger → … → joiner
	}
	return best, found
}

// enumerateQuery generates candidates via the query scheme of §3.3.1: the
// joiner asks each of its graph neighbors to relay a query along the
// neighbor's unicast shortest path toward the source; the first on-tree node
// met answers with its SHR and becomes a candidate merger. Coverage is
// partial by design — the scheme trades optimality for not needing topology
// knowledge. Each relayed query increments stats.QueryMessages.
func enumerateQuery(t *multicast.Tree, joiner graph.NodeID, shr shrVals, extraMask *graph.Mask, stats *Stats) []Candidate {
	g := t.Graph()
	src := t.Source()
	best := make(map[graph.NodeID]Candidate)
	for _, arc := range g.Neighbors(joiner) {
		v := arc.To
		if extraMask.NodeBlocked(v) || extraMask.EdgeBlocked(joiner, v) {
			continue
		}
		stats.QueryMessages++
		// The neighbor's own unicast shortest path toward the source.
		spf, _ := g.ShortestPath(v, src, extraMask)
		if spf == nil {
			continue
		}
		// Walk toward the source until the first on-tree node.
		var merger graph.NodeID = graph.Invalid
		var relay graph.Path
		for _, n := range spf {
			relay = append(relay, n)
			if t.OnTree(n) {
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
			SHR:        shr.at(merger),
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

// selectCandidate applies the paper's Path Selection Criterion: among
// candidates whose TotalDelay is within (1+DThresh)·spfDelay, pick the one
// with minimum SHR; break ties on TotalDelay, then on merger ID for
// determinism. When no candidate meets the bound the minimum-delay candidate
// is returned with withinBound=false — a member must still be able to join
// (the paper leaves this corner unspecified; falling back to the fastest
// available path is the SPF-like behaviour).
func selectCandidate(cands []Candidate, spfDelay, dThresh float64) (Candidate, bool) {
	bound := (1 + dThresh) * spfDelay
	bestFeasible, haveFeasible := Candidate{}, false
	bestAny, haveAny := Candidate{}, false
	for _, c := range cands {
		if !haveAny || less(c, bestAny, true) {
			bestAny, haveAny = c, true
		}
		if c.TotalDelay <= bound+delayEps {
			if !haveFeasible || less(c, bestFeasible, false) {
				bestFeasible, haveFeasible = c, true
			}
		}
	}
	if haveFeasible {
		return bestFeasible, true
	}
	return bestAny, false
}

// less orders candidates: by delay first when delayFirst (used by the
// fallback), otherwise by SHR, then delay, then merger ID.
func less(a, b Candidate, delayFirst bool) bool {
	if delayFirst {
		if a.TotalDelay != b.TotalDelay {
			return a.TotalDelay < b.TotalDelay
		}
		return a.Merger < b.Merger
	}
	if a.SHR != b.SHR {
		return a.SHR < b.SHR
	}
	if a.TotalDelay != b.TotalDelay {
		return a.TotalDelay < b.TotalDelay
	}
	return a.Merger < b.Merger
}
