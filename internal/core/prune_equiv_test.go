package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/topology"
)

// pruneOracle drives one real session and, at every path selection it makes,
// holds Session.selectPath to the exhaustive reference — the full absorbing
// sweep of enumerateFull, every connection materialized, then selectCandidate
// — computed on the state the session is in just before the operation. The
// reference's choice is applied to a clone of that tree; after the operation
// the session must stand exactly where the clone does. Everything but the
// selection is shared code, so agreement at every selection is agreement of
// whole runs.
type pruneOracle struct {
	t *testing.T
	s *Session

	// selections counts the selections checked; joins that found nothing
	// within the bound, and so sweep a second time, are rescans.
	selections, rescans int
	joins, parks, moves int
	// ties counts the selections whose winner shares its TotalDelay with
	// another candidate's: the merger-ID tie-break had something to break.
	// beyond and reordered count second passes: those whose winner the
	// bounded sweep never reached, and those whose fastest candidate is not
	// the one of least SHR.
	ties, beyond, reordered int
	// What the reshape checks went through: checks whose view pruned a relay
	// chain above the member, and of those the ones the chain stopped at a
	// member relay (no other child, spared for being a receiver); winners
	// Reroute refused because they cross a pruned relay the real tree still
	// holds; admissible winners inside the member's own top-level branch, where
	// the view's SHR differs from the table's, and outside it.
	chains, memberStops, refused, inside, outside int
	// What the sweep's run toward the source went through.
	goal goalCoverage
	// probed takes the counters of the oracle's own selectPath calls, so that
	// the session's read as if only its operations had run.
	probed Stats
	// want is what the session's selection counters must read: every bounded
	// pass as selectPath counts it on its own, plus, for every rescan, what the
	// reference's exhaustive sweep counts.
	want Stats
}

// goalCoverage counts what the bounded passes decided at the source ran under
// — a whole view (a join's, and the oracle's own of a hypothetical tree) or a
// reshape's view of the real tree, a failure or subtree mask — and what the
// sweeps toward it did that a sweep in distance order never does: exits whose
// level held more than the source, sources reached inside the prune slack and
// declined for lying over the bound, nodes queued again after settling,
// settled nodes that took a smaller parent.
type goalCoverage struct {
	whole, view, masked                     int
	drained, declined, requeued, reparented int
}

func (c *goalCoverage) add(d goalCoverage) {
	c.whole += d.whole
	c.view += d.view
	c.masked += d.masked
	c.drained += d.drained
	c.declined += d.declined
	c.requeued += d.requeued
	c.reparented += d.reparented
}

// probe runs selectPath as the session would, counting into o.probed instead
// of the session's counters, and hands back what the call added. A bounded
// pass (mustLand false) under full knowledge is one sweep, and o.goal takes
// what it did.
func (o *pruneOracle) probe(tr *multicast.Tree, joiner graph.NodeID, mask *graph.Mask, lower []float64, spfDelay float64, mustLand bool) (got Candidate, within, ok bool, counted Stats) {
	s := o.s
	before, own := o.probed, s.stats
	s.stats = o.probed
	a := s.newArena()
	defer a.release()
	a.view.whole(tr)
	got, within, ok = s.selectPath(a, joiner, mask, lower, spfDelay, mustLand)
	got.Connection = slices.Clone(got.Connection) // the arena's, and the arena goes back
	o.probed, s.stats = s.stats, own
	counted = Stats{
		EnumSettled:       o.probed.EnumSettled - before.EnumSettled,
		CandidatesSeen:    o.probed.CandidatesSeen - before.CandidatesSeen,
		SelectRescans:     o.probed.SelectRescans - before.SelectRescans,
		SelectSourceExits: o.probed.SelectSourceExits - before.SelectSourceExits,
	}
	if !mustLand && s.cfg.Knowledge != QueryScheme {
		requeued, reparented, drained := a.sw.Relabels()
		o.goal.requeued += requeued
		o.goal.reparented += reparented
		switch {
		case counted.SelectSourceExits == 0:
			if a.sw.Reached(tr.Source()) {
				o.goal.declined++
			}
		case drained > 0:
			o.goal.drained++
		}
	}
	return got, within, ok, counted
}

// reference runs the exhaustive enumeration and the selection criterion for
// joiner on tree tr, and checks selectPath against it field by field: the
// bounded pass alone, as a reshape runs it, and whenever that finds nothing,
// the unbounded second pass a join would add (isJoin: the session is about to
// add it). admissible is false when nothing is within the bound.
func (o *pruneOracle) reference(tr *multicast.Tree, joiner graph.NodeID, mask *graph.Mask, isJoin bool, what string) (want Candidate, admissible, reachable bool) {
	o.t.Helper()
	s := o.s
	shr := ComputeSHR(tr)
	sw := s.g.NewSweep() // the reference asks no cache
	defer sw.Release()
	sw.Run(tr.Source(), s.maskOrNil(), nil)
	spf := sw.Dist(joiner)
	spfDelay, lower := s.sourceSPF(joiner, nil)
	if spfDelay != spf {
		o.t.Fatalf("%s: sourceSPF delay %v, reference %v", what, spfDelay, spf)
	}

	// Full knowledge is held to the exhaustive enumeration. The query scheme's
	// replies are what they are — the same relayed queries, asked of tr as it
	// stands; what they check is the view a reshape asks them through — and a
	// second pass over them neither sweeps nor counts them again.
	var full Stats
	var cands []Candidate
	query := s.cfg.Knowledge == QueryScheme
	if query {
		cands = enumerateQuery(new(treeView).whole(tr), joiner, mask, new(Stats))
	} else {
		cands = enumerateFull(tr, joiner, shr, mask, &full)
		full.CandidatesSeen = len(cands)
	}
	want, admissible = selectCandidate(cands, spf, s.cfg.DThresh)
	same := func(got Candidate) bool {
		return got.Merger == want.Merger && got.ConnDelay == want.ConnDelay && got.TotalDelay == want.TotalDelay &&
			got.SHR == want.SHR && slices.Equal(got.Connection, want.Connection)
	}

	if slices.ContainsFunc(cands, func(c Candidate) bool { return c.Merger != want.Merger && c.TotalDelay == want.TotalDelay }) {
		o.ties++
	}

	got, within, found, bounded := o.probe(tr, joiner, mask, lower, spfDelay, false)
	o.selections++
	if found != admissible || within != found {
		o.t.Fatalf("%s: bounded pass found=%v within=%v, reference admissible=%v (%d candidates)", what, found, within, admissible, len(cands))
	}
	if found && !same(got) {
		o.t.Fatalf("%s: bounded pass chose %+v, reference %+v", what, got, want)
	}
	if bounded.CandidatesSeen > len(cands) || bounded.SelectRescans != 0 {
		o.t.Fatalf("%s: bounded pass counted %+v; the exhaustive sweep has %d candidates", what, bounded, len(cands))
	}
	if !query {
		// A pass that stops at the source has the source win, having listed
		// nothing else; any other is the sweep of the whole region, as one with
		// no goal runs it — also past a source it reached and declined.
		sw.RunPruned(joiner, mask, tr.OnTree, lower, (1+s.cfg.DThresh)*spf*(1+pruneSlack)+2*delayEps, graph.Invalid, 0)
		reached := 0
		for _, n := range tr.Nodes() {
			if sw.Reached(n) {
				reached++
			}
		}
		if sw.SettledCount() > full.EnumSettled {
			o.t.Fatalf("%s: the region's sweep settles %d nodes, the exhaustive one %d", what, sw.SettledCount(), full.EnumSettled)
		}
		switch bounded.SelectSourceExits {
		case 0:
			if bounded.EnumSettled != sw.SettledCount() || bounded.CandidatesSeen != reached {
				o.t.Fatalf("%s: bounded pass counted %+v; the region's sweep settles %d and reaches %d mergers", what, bounded, sw.SettledCount(), reached)
			}
		case 1:
			if !found || got.Merger != tr.Source() || bounded.CandidatesSeen != 1 || bounded.EnumSettled > sw.SettledCount() {
				o.t.Fatalf("%s: bounded pass stopped at the source counting %+v and chose %+v (found=%v); the region's sweep settles %d",
					what, bounded, got, found, sw.SettledCount())
			}
			o.goal.whole++
			if mask != nil {
				o.goal.masked++
			}
		default:
			o.t.Fatalf("%s: one bounded pass counted %d exits at the source", what, bounded.SelectSourceExits)
		}
	}
	o.want.EnumSettled += bounded.EnumSettled
	o.want.CandidatesSeen += bounded.CandidatesSeen
	o.want.SelectSourceExits += bounded.SelectSourceExits
	if found {
		return want, true, true
	}

	// A join sweeps again with the bound lifted: the reference's fastest
	// candidate, and on top of the bounded pass exactly the reference's work.
	got, within, found, both := o.probe(tr, joiner, mask, lower, spfDelay, true)
	if found != (len(cands) > 0) || within {
		o.t.Fatalf("%s: second pass found=%v within=%v, reference has %d candidates, none within the bound", what, found, within, len(cands))
	}
	if found && !same(got) {
		o.t.Fatalf("%s: second pass chose %+v, reference %+v", what, got, want)
	}
	if both.EnumSettled != bounded.EnumSettled+full.EnumSettled || both.CandidatesSeen != bounded.CandidatesSeen+full.CandidatesSeen || both.SelectRescans != 1 || both.SelectSourceExits != 0 {
		o.t.Fatalf("%s: both passes counted %+v; bounded pass %+v, the exhaustive sweep settles %d and has %d candidates", what, both, bounded, full.EnumSettled, len(cands))
	}
	// What makes the second pass more than the first one repeated: a winner
	// the bounded sweep (sw still holds the region's) stopped short of, and an
	// order that disagrees with the bounded pass's.
	if found && !query && !sw.Reached(want.Merger) {
		o.beyond++
	}
	if bySHR, _ := selectCandidate(cands, math.Inf(1), 0); bySHR.Merger != want.Merger {
		o.reordered++
	}
	if isJoin {
		o.rescans++
		o.want.EnumSettled += full.EnumSettled
		o.want.CandidatesSeen += full.CandidatesSeen
	}
	return want, false, len(cands) > 0
}

// checkCounters asserts the session's selection counters read what the
// reference's accounting says its operations cost.
func (o *pruneOracle) checkCounters(what string) {
	o.t.Helper()
	if st := o.s.Stats(); st.EnumSettled != o.want.EnumSettled || st.CandidatesSeen != o.want.CandidatesSeen || st.SelectRescans != o.rescans || st.SelectSourceExits != o.want.SelectSourceExits {
		o.t.Fatalf("%s: session counted settled=%d candidates=%d rescans=%d exits at the source=%d, the reference's accounting is %d / %d / %d / %d",
			what, st.EnumSettled, st.CandidatesSeen, st.SelectRescans, st.SelectSourceExits, o.want.EnumSettled, o.want.CandidatesSeen, o.rescans, o.want.SelectSourceExits)
	}
}

// sameTree asserts the session's tree equals exp node for node: parents,
// membership and delays.
func (o *pruneOracle) sameTree(exp *multicast.Tree, what string) {
	o.t.Helper()
	tr := o.s.tree
	if err := tr.Validate(); err != nil {
		o.t.Fatalf("%s: tree invalid: %v", what, err)
	}
	if !slices.Equal(tr.Nodes(), exp.Nodes()) || !slices.Equal(tr.Members(), exp.Members()) {
		o.t.Fatalf("%s: tree nodes %v members %v, reference %v / %v", what, tr.Nodes(), tr.Members(), exp.Nodes(), exp.Members())
	}
	for _, n := range exp.Nodes() {
		gp, _ := tr.Parent(n)
		wp, _ := exp.Parent(n)
		gd, _ := tr.DelayTo(n)
		wd, _ := exp.DelayTo(n)
		if gp != wp || gd != wd {
			o.t.Fatalf("%s: node %d (parent, delay) = (%d, %v), reference (%d, %v)", what, n, gp, gd, wp, wd)
		}
	}
	ref := computeSHRReference(exp)
	checkSourceAloneAtZero(o.t, what, exp.Source(), ref)
	for n, v := range o.s.SHRSnapshot() {
		if v != ref[n] {
			o.t.Fatalf("%s: SHR[%d] = %d, reference %d", what, n, v, ref[n])
		}
	}
}

// join admits nr through the session and checks the outcome against the
// reference's.
func (o *pruneOracle) join(nr graph.NodeID) {
	o.t.Helper()
	s := o.s
	what := fmt.Sprintf("join %d", nr)
	mask := s.maskOrNil()
	exp := s.tree.Clone()
	parkedBefore := s.Parked()

	if s.tree.IsMember(nr) || mask.NodeBlocked(nr) {
		if _, err := s.Join(nr); err == nil {
			o.t.Fatalf("%s: member or failed node admitted", what)
		}
		o.sameTree(exp, what)
		return
	}
	sw := s.g.NewSweep()
	sw.Run(s.tree.Source(), mask, nil)
	cutOff := !sw.Reached(nr)
	sw.Release()

	var want Candidate
	admissible, reachable := true, false
	switch {
	case cutOff:
	case s.tree.OnTree(nr):
		want, reachable = Candidate{Merger: nr, Connection: graph.Path{nr}}, true
	default:
		want, admissible, reachable = o.reference(s.tree, nr, mask, true, what)
	}

	res, err := s.Join(nr)
	if !reachable {
		// Nothing connects nr to the source: parked when degraded, refused
		// when healthy; the tree is untouched either way.
		if err == nil || (mask != nil) != errors.Is(err, ErrPartitioned) {
			o.t.Fatalf("%s: err = %v with no path (degraded=%v)", what, err, mask != nil)
		}
		if mask != nil {
			if !slices.Contains(parkedBefore, nr) {
				o.parks++
			}
			if !s.IsParked(nr) {
				o.t.Fatalf("%s: partitioned joiner not parked", what)
			}
		}
		o.sameTree(exp, what)
		return
	}
	if err != nil {
		o.t.Fatalf("%s: %v, reference chose merger %d", what, err, want.Merger)
	}
	o.joins++
	if err := exp.Graft(want.Connection, true); err != nil {
		o.t.Fatalf("%s: reference graft: %v", what, err)
	}
	wantDelay, _ := exp.DelayTo(nr)
	if res.Merger != want.Merger || !slices.Equal(res.Connection, want.Connection) ||
		res.MergerSHR != want.SHR || res.WithinBound != admissible || res.Delay != wantDelay {
		o.t.Fatalf("%s: result %+v, reference %+v (admissible=%v, delay %v)", what, res, want, admissible, wantDelay)
	}
	o.sameTree(exp, what)
	if got := s.Parked(); !slices.Equal(got, slices.DeleteFunc(parkedBefore, func(p graph.NodeID) bool { return p == nr })) {
		o.t.Fatalf("%s: parked set %v, was %v", what, got, parkedBefore)
	}
}

// reshape re-selects member m's path (§3.2.3) and checks it against the
// hypothetical tree of the paper built the slow way — a clone of the tree with
// m's subtree removed, its SHR computed from scratch, the subtree
// extra-mask built anew. The view reshapeMember reads the real tree through
// must agree with that clone node by node; the selection made through it must
// be the reference's on the clone; and the member moves exactly when the
// reference's winner beats its current attachment as the clone reads it.
func (o *pruneOracle) reshape(m graph.NodeID) {
	o.t.Helper()
	s := o.s
	what := fmt.Sprintf("reshape %d", m)
	parent, _ := s.tree.Parent(m)
	if parent == graph.Invalid {
		return
	}
	exp := s.tree.Clone()
	hypo := s.tree.Clone()
	sub, err := s.tree.SubtreeNodes(m)
	if err != nil {
		o.t.Fatal(err)
	}
	if _, err := hypo.DetachSubtree(m, nil); err != nil {
		o.t.Fatal(err)
	}
	hypo.PruneFrom([]graph.NodeID{parent})
	hypoSHR := ComputeSHR(hypo)
	mask := graph.NewMask().BlockNodes(sub...).UnblockNode(m).Union(s.failed)
	curMerger := parent
	for !hypo.OnTree(curMerger) {
		curMerger, _ = s.tree.Parent(curMerger)
	}

	// The view, set up as reshapeMember sets it up (on the tree itself, not
	// through shrTree, so that the session's last-read epoch stays as it is).
	a := s.newArena()
	v := &a.view
	if got := v.without(s.tree, m, s.maskOrNil()); got != curMerger {
		o.t.Fatalf("%s: the view's current merger is %d, the hypothetical tree's %d", what, got, curMerger)
	}
	if v.numNodes() != hypo.NumNodes() {
		o.t.Fatalf("%s: the view counts %d nodes, the hypothetical tree has %d", what, v.numNodes(), hypo.NumNodes())
	}
	for n := graph.NodeID(0); int(n) < s.g.NumNodes(); n++ {
		if v.onTree(n) != hypo.OnTree(n) {
			o.t.Fatalf("%s: the view has node %d on the tree = %v, the hypothetical tree %v", what, n, v.onTree(n), hypo.OnTree(n))
		}
		if hypo.OnTree(n) && (v.shrAt(n) != hypoSHR[n] || (v.shrAt(n) == 0) != (n == hypo.Source())) {
			o.t.Fatalf("%s: the view reads SHR[%d] = %d, the hypothetical tree's table %d; the source, %d, is to be the one node at 0",
				what, n, v.shrAt(n), hypoSHR[n], hypo.Source())
		}
	}
	if got, want := maskElems(v.avoid), maskElems(mask); !maps.Equal(got, want) {
		o.t.Fatalf("%s: the view's mask blocks %v, subtree ∪ failed %v", what, got, want)
	}
	if v.cut > v.sub {
		o.chains++
		if curMerger != s.tree.Source() && s.tree.NumChildren(curMerger) == 1 {
			o.memberStops++ // nothing but being a receiver spared it
		}
	}
	v.restore()
	if !v.avoid.IsEmpty() || slices.ContainsFunc(v.marks, func(k int32) bool { return k != 0 }) || v.onTree(m) != s.tree.OnTree(m) {
		o.t.Fatalf("%s: the view keeps marks or blocks after restore", what)
	}
	a.release()

	want, admissible, _ := o.reference(hypo, m, mask, false, what)
	curSHR := hypoSHR[curMerger]
	curDelay, _ := s.tree.DelayTo(m)
	wantMove := admissible && (want.SHR < curSHR || (want.SHR == curSHR && want.TotalDelay < curDelay-delayEps))
	if admissible {
		if top := s.tree.TopAncestor(m); s.tree.TopAncestor(want.Merger) == top {
			o.inside++
		} else {
			o.outside++
		}
	}
	// Deferred maintenance would have a check compute the table of the tree
	// as it stands (if stale) and pay for the hypothetical tree's; a move
	// makes the session read the new tree's for the member's baseline.
	wantComputes := hypo.NumNodes()
	if s.shrSeen != s.tree.Epoch()+1 {
		wantComputes += s.tree.NumNodes()
	}
	computes := s.stats.SHRComputes

	a = s.newArena()
	defer a.release()
	exits := s.stats.SelectSourceExits
	moved, err := s.reshapeMember(a, m)
	o.goal.view += s.stats.SelectSourceExits - exits
	if err != nil {
		// The winner crosses a relay above m that the hypothetical tree
		// pruned and the real one still holds; Reroute refuses it and the
		// member stays. The reference's winner must be refused alike.
		interior := want.Connection[1 : len(want.Connection)-1]
		if !wantMove || exp.Clone().Reroute(m, want.Connection) == nil ||
			!slices.ContainsFunc(interior, func(n graph.NodeID) bool { return s.tree.OnTree(n) && !hypo.OnTree(n) }) {
			o.t.Fatalf("%s: %v, but the reference's %v is accepted", what, err, want.Connection)
		}
		o.refused++
		wantMove = false
	}
	if moved != wantMove {
		o.t.Fatalf("%s: moved = %v; the reference's winner %+v against merger %d (SHR %d, delay %v) says %v",
			what, moved, want, curMerger, curSHR, curDelay, wantMove)
	}
	if moved {
		o.moves++
		if err := exp.Reroute(m, want.Connection); err != nil {
			o.t.Fatalf("%s: reference reroute: %v", what, err)
		}
		wantComputes += exp.NumNodes()
	}
	if got := s.stats.SHRComputes - computes; got != wantComputes {
		o.t.Fatalf("%s: counted %d SHR computes, want %d (moved = %v)", what, got, wantComputes, moved)
	}
	o.sameTree(exp, what)
}

// maskElems returns the set of m's elements.
func maskElems(m *graph.Mask) map[graph.MaskElem]bool {
	out := map[graph.MaskElem]bool{}
	m.Each(func(e graph.MaskElem) { out[e] = true })
	return out
}

// TestPrunedSelectionMatchesExhaustive is the equivalence property of the
// selection engine: over 60 random Waxman topologies × {SPF cache, none} ×
// D_thresh ∈ {0, 0.3, 5}, every fifth on sparse tree storage,
// 12 more under the query scheme, and 24 denser planes whose links weigh 0.1,
// 0.2 or 0.3, through healthy joins, joins on a
// folded-but-unflushed failure (dead edges still on the tree), joins on an
// accumulated flushed mask, joins under a bound tighter than the one the tree
// grew under, and a reshape of every member in each of those states (the
// subtree extra-mask), every selection the session makes is the exhaustive
// reference's, bit for bit, and the session's tree, SHR column, parked set and
// outcome counters follow. A join that finds nothing within the bound sweeps
// again, unbounded: that pass is held to the reference's fastest candidate the
// same way wherever the bounded one finds nothing, on a reshape's hypothetical
// tree too, and the session's own selection counters must add up to every
// bounded pass plus the reference's exhaustive work for each join that swept
// twice. The run must hold at least 40 second passes (Stats.SelectRescans of
// the oracle's calls counts them), some of them the sessions' own joins, some
// whose winner the bounded sweep stopped short of, and some where least SHR
// and least delay disagree. Every reshape is also the check of the view it
// reads the tree through against the hypothetical tree of §3.2.3 built by
// Clone, DetachSubtree and PruneFrom (pruneOracle.reshape), and the run must hold the
// cases that make the two differ: relay chains pruned above the member, chains
// stopped by a member relay, winners that cross a pruned relay and are
// refused, winners inside and outside the member's top-level branch. A bounded
// pass stops at the source or is the sweep of its whole region, settled count
// and mergers reached included (pruneOracle.reference), and the run must hold
// stops through whole views and reshape views and under a mask, stops whose
// level held more than the source, settled nodes queued again and settled
// nodes re-parented; the source reached and declined is
// TestSourceInsidePruneSlackIsDeclined's.
func TestPrunedSelectionMatchesExhaustive(t *testing.T) {
	const topologies, queried, tenths = 60, 12, 24
	var selections, secondPasses, rescans, beyond, reordered int
	var chains, memberStops, refused, inside, outside int
	var goal goalCoverage
	for trial := 0; trial < topologies+queried+tenths; trial++ {
		rng := topology.NewRNG(0x9E11195E + uint64(trial))
		n := 20 + rng.Intn(41) // 20..60 nodes
		var g *graph.Graph
		if trial < topologies+queried {
			var err error
			g, err = topology.Waxman(topology.WaxmanConfig{
				N:               n,
				Alpha:           0.15 + 0.2*rng.Float64(),
				Beta:            topology.DefaultBeta,
				EnsureConnected: true,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			// A denser plane whose links weigh 0.1, 0.2 or 0.3: paths tie but
			// for the order their weights are summed in, (0.1+0.2)+0.3 ≠
			// 0.1+(0.2+0.3), so the potential is consistent to a rounding only
			// and the sweep has settled nodes to lower.
			b := graph.New(n)
			linked := map[graph.EdgeID]bool{}
			for i := 1; i < n; i++ {
				u := graph.NodeID(rng.Intn(i))
				linked[graph.MakeEdgeID(graph.NodeID(i), u)] = true
				_ = b.AddEdge(graph.NodeID(i), u, 0.1*float64(1+rng.Intn(3)))
			}
			for i := 0; i < 2*n; i++ {
				if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v && !linked[graph.MakeEdgeID(u, v)] {
					linked[graph.MakeEdgeID(u, v)] = true
					_ = b.AddEdge(u, v, 0.1*float64(1+rng.Intn(3)))
				}
			}
			var err error
			if g, err = b.Freeze(); err != nil {
				t.Fatal(err)
			}
		}
		cfg := DefaultConfig()
		cfg.DThresh = []float64{0, 0.3, 5}[trial/2%3]
		if trial%5 == 3 {
			cfg.TreeStorage = StorageSparse
		}
		if trial >= topologies && trial < topologies+queried {
			cfg.Knowledge = QueryScheme
		}
		// Condition I is off so that every reshape is one the oracle drives
		// (and checks); it reaches the same reshapeMember.
		cfg.ReshapeDelta = 0
		src := graph.NodeID(rng.Intn(n))
		s, err := NewSession(g, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := &pruneOracle{t: t, s: s}
		randomFailure := func() failure.Failure {
			if es := g.Edges(); rng.Intn(2) == 0 {
				e := es[rng.Intn(len(es))]
				return failure.LinkDown(e.A, e.B)
			}
			down := graph.NodeID(rng.Intn(n))
			if down == src {
				down = (down + 1) % graph.NodeID(n)
			}
			return failure.NodeDown(down)
		}
		round := func() {
			for i, k := 0, 3+rng.Intn(6); i < k; i++ {
				o.join(graph.NodeID(rng.Intn(n)))
			}
			for _, m := range s.tree.Members() {
				o.reshape(m)
			}
		}

		round() // healthy
		// A tree edge goes down and is folded but not flushed: the tree keeps
		// its dead edges, which is the state where masked SPF distances stop
		// being a lower bound on tree delay.
		if es := s.tree.Edges(); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			s.ApplyFailure(failure.LinkDown(e.A, e.B))
		}
		s.ApplyFailure(randomFailure())
		round()
		// Flush, then accumulate one more failure through a full recovery.
		parksBefore := s.Stats().Parks
		if _, err := s.Reconcile(); err != nil {
			t.Fatalf("trial %d: reconcile: %v", trial, err)
		}
		if _, err := s.Recover(randomFailure()); err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		recoveryParks := s.Stats().Parks - parksBefore
		round()
		// The bound tightens to the SPF delay under a tree whose delays a looser
		// bound (or a detour) stretched: no session is configured into this state,
		// the engine is merely asked, and many joiners now find every merger
		// over the bound — what the second pass needs to be seen at work.
		s.cfg.DThresh = 0
		for _, v := range rng.Sample(n, n/2) {
			o.join(graph.NodeID(v))
		}
		for _, m := range s.tree.Members() {
			o.reshape(m)
		}

		st := s.Stats()
		if st.Joins != o.joins || st.Reshapes != o.moves || st.Parks-recoveryParks != o.parks {
			t.Fatalf("trial %d: stats %+v, oracle saw joins=%d moves=%d parks=%d (+%d in recovery)",
				trial, st, o.joins, o.moves, o.parks, recoveryParks)
		}
		o.checkCounters(fmt.Sprintf("trial %d", trial))
		selections += o.selections
		secondPasses += o.probed.SelectRescans
		rescans += st.SelectRescans
		beyond += o.beyond
		reordered += o.reordered
		chains += o.chains
		memberStops += o.memberStops
		refused += o.refused
		inside += o.inside
		outside += o.outside
		goal.add(o.goal)
	}
	t.Logf("%d selections, %d found nothing within the bound (%.1f%%): %d joins that swept again, %d winners beyond the bounded sweep, %d where SHR and delay disagree",
		selections, secondPasses, 100*float64(secondPasses)/float64(selections), rescans, beyond, reordered)
	if secondPasses < 40 || rescans == 0 || beyond == 0 || reordered == 0 {
		t.Fatal("the second pass went untested: want at least 40 of them, and some of each kind")
	}
	t.Logf("reshape checks: %d pruned a relay chain (%d stopped by a member relay), %d winners refused for crossing one, %d winners inside the member's top-level branch, %d outside",
		chains, memberStops, refused, inside, outside)
	if chains == 0 || memberStops == 0 || refused == 0 || inside == 0 || outside == 0 {
		t.Fatal("the reshape view went untested where it differs from the tree: want some of each kind")
	}
	t.Logf("decided at the source: %d through a whole view (%d under a mask), %d through a reshape's view, %d with more than the source at its level; %d sources reached and declined; %d nodes queued again after settling, %d settled nodes re-parented",
		goal.whole, goal.masked, goal.view, goal.drained, goal.declined, goal.requeued, goal.reparented)
	if goal.whole == 0 || goal.masked == 0 || goal.view == 0 || goal.drained == 0 || goal.requeued == 0 || goal.reparented == 0 {
		t.Fatal("the sweep's run toward the source went untested: want some of each kind")
	}
}

// TestJoinOnUnflushedFailureKeepsDeadEdgeCandidate pins the lower bound the
// prune may use while a failure is folded into the mask but Recover has not
// flushed it: the tree still holds the dead edge, so a node's tree delay can
// undercut its *masked* SPF distance, and only unmasked distances stay below
// it.
//
//	S —1— a —1— j        members: a, c, d, e; then link S–a fails (no Recover)
//	S —1— c —1— j        masked SPF(S, j) = 2 via c, bound 2.6
//	S —5— b —5— a        a: tree delay 1 over the dead edge, total 2, SHR 1
//	c —1— d, c —1— e     c: total 2, SHR 3
//
// The exhaustive reference picks a. Masked, SPF(S, a) is 3 (via c and j) and
// 1 + 3 exceeds the bound: a prune on masked distances never reaches a and
// the join lands on c instead.
func TestJoinOnUnflushedFailureKeepsDeadEdgeCandidate(t *testing.T) {
	const S, a, b, c, d, e, j = 0, 1, 2, 3, 4, 5, 6
	build := graph.New(7)
	for _, ed := range []struct {
		u, v graph.NodeID
		w    float64
	}{{S, a, 1}, {a, j, 1}, {S, c, 1}, {c, j, 1}, {S, b, 5}, {b, a, 5}, {c, d, 1}, {c, e, 1}} {
		if err := build.AddEdge(ed.u, ed.v, ed.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := build.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ReshapeDelta = 0
	s, err := NewSession(g, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{a, c, d, e} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	s.ApplyFailure(failure.LinkDown(S, a))

	o := &pruneOracle{t: t, s: s}
	o.join(j) // checks the pruned pass and the join against the reference
	if p, _ := s.tree.Parent(j); p != a {
		t.Fatalf("j attached below %d, want %d (the low-SHR merger over the unflushed edge)", p, a)
	}
	if o.probed.SelectRescans != 0 || s.Stats().SelectRescans != 0 {
		t.Fatal("the join swept a second time; the bounded pass should have reached a")
	}
}

// TestSourceInsidePruneSlackIsDeclined pins the one way a sweep reaches the
// source and does not stop there: its connection lies inside the slack the
// prune allows over the bound, where the sweep goes so that rounding cuts no
// admissible path, and beyond bound + delayEps, where no candidate is
// admissible.
//
//	S —1— a —1— j             member: a; D_thresh 0, SPF(S, j) = 2 = the bound
//	S —1— b —(1+1.5e-9)— j    the source through b: 2.0000000015, over the bound
//	S —1— c —(1+3.8e-9)— j    c is keyed 2.0000000038: past the source's level,
//	                          inside the budget 2·(1+1e-9) + 2e-9
//
// The sweep settles the source, finds it over the bound and runs on, through c:
// it is the sweep of the region, and j lands below a.
func TestSourceInsidePruneSlackIsDeclined(t *testing.T) {
	const S, a, b, c, j = 0, 1, 2, 3, 4
	build := graph.New(5)
	for _, ed := range []struct {
		u, v graph.NodeID
		w    float64
	}{{S, a, 1}, {a, j, 1}, {S, b, 1}, {b, j, 1 + 1.5e-9}, {S, c, 1}, {c, j, 1 + 3.8e-9}} {
		if err := build.AddEdge(ed.u, ed.v, ed.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := build.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DThresh, cfg.ReshapeDelta = 0, 0
	s, err := NewSession(g, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(a); err != nil {
		t.Fatal(err)
	}

	o := &pruneOracle{t: t, s: s}
	o.join(j) // holds the pass to the region's sweep, settled count included
	if p, _ := s.tree.Parent(j); p != a {
		t.Fatalf("j attached below %d, want %d", p, a)
	}
	if st := s.Stats(); o.goal.declined != 1 || o.goal.whole != 0 || st.SelectSourceExits != 1 || st.SelectRescans != 0 {
		t.Fatalf("%d sources declined, %d selections stopped at one, the session counts %d (a's join) and %d second passes; want 1, 0, 1, 0",
			o.goal.declined, o.goal.whole, st.SelectSourceExits, st.SelectRescans)
	}
	// Five settled: j, a, b, the source, and — after it was declined — c.
	if got := o.probed.EnumSettled; got != 5 {
		t.Fatalf("the bounded pass settled %d nodes, want 5", got)
	}
}
