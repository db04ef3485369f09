package core

import (
	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// The selection engine production ran until the sweep-and-score pass became
// total: enumerateFull materializes a candidate per on-tree node off one
// exhaustive absorbing sweep, selectCandidate applies the criterion to the
// list, lessReference is the order both passes of it use. They are kept as
// they were (less renamed, so that the reference shares no code with
// selection.offer) as what the equivalence tests and FuzzSelectPath hold
// Session.selectPath to.

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
// Exhaustive, every connection materialized.
func enumerateFull(t *multicast.Tree, joiner graph.NodeID, shr map[graph.NodeID]int, extraMask *graph.Mask, stats *Stats) []Candidate {
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
		conn := sw.AppendPathFrom(nil, merger) // merger → … → joiner
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
			SHR:        shr[merger],
		})
	}
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
		if !haveAny || lessReference(c, bestAny, true) {
			bestAny, haveAny = c, true
		}
		if c.TotalDelay <= bound+delayEps {
			if !haveFeasible || lessReference(c, bestFeasible, false) {
				bestFeasible, haveFeasible = c, true
			}
		}
	}
	if haveFeasible {
		return bestFeasible, true
	}
	return bestAny, false
}

// lessReference orders candidates: by delay first when delayFirst (used by
// the fallback), otherwise by SHR, then delay, then merger ID.
func lessReference(a, b Candidate, delayFirst bool) bool {
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
