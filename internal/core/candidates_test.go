package core

import (
	"math"
	"slices"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/topology"
)

// criterion puts cands to the production criterion the way a join does —
// within the bound, then, if nothing is, with the bound lifted and delay first
// — and requires the reference selectCandidate to agree.
func criterion(t *testing.T, cands []Candidate, spfDelay, dThresh float64) (Candidate, bool) {
	t.Helper()
	got, within := selectAmong(cands, (1+dThresh)*spfDelay, false)
	if !within {
		got, _ = selectAmong(cands, math.Inf(1), true)
	}
	if want, wantWithin := selectCandidate(cands, spfDelay, dThresh); got.Merger != want.Merger || within != wantWithin {
		t.Fatalf("criterion chose merger %d (within=%v), reference %d (%v)", got.Merger, within, want.Merger, wantWithin)
	}
	return got, within
}

func TestSelectCandidateCriterion(t *testing.T) {
	cands := []Candidate{
		{Merger: 1, TotalDelay: 10, SHR: 3},
		{Merger: 2, TotalDelay: 12, SHR: 1},
		{Merger: 3, TotalDelay: 11, SHR: 1},
		{Merger: 4, TotalDelay: 30, SHR: 0}, // outside the bound
	}
	got, ok := criterion(t, cands, 10, 0.3) // bound = 13
	if !ok {
		t.Fatal("feasible candidates exist")
	}
	// Min SHR among feasible is 1; tie broken by delay → merger 3.
	if got.Merger != 3 {
		t.Errorf("selected merger %d, want 3", got.Merger)
	}
}

func TestSelectCandidateTieOnMergerID(t *testing.T) {
	cands := []Candidate{
		{Merger: 7, TotalDelay: 10, SHR: 2},
		{Merger: 4, TotalDelay: 10, SHR: 2},
	}
	got, ok := criterion(t, cands, 10, 0.5)
	if !ok || got.Merger != 4 {
		t.Errorf("tie break by merger ID failed: %+v, %v", got, ok)
	}
}

func TestSelectCandidateFallback(t *testing.T) {
	cands := []Candidate{
		{Merger: 1, TotalDelay: 20, SHR: 5},
		{Merger: 2, TotalDelay: 18, SHR: 9},
	}
	got, ok := criterion(t, cands, 10, 0.3) // bound 13: nothing feasible
	if ok {
		t.Fatal("no candidate should be within bound")
	}
	// With the bound lifted the fastest wins, regardless of SHR.
	if got.Merger != 2 {
		t.Errorf("fallback merger = %d, want 2", got.Merger)
	}
}

func TestEnumerateFullMergersAreExact(t *testing.T) {
	// On the Figure 4 tree after E joined (S-A-D-E), F's candidates must
	// merge exactly at their stated node: each connection's only on-tree
	// node is the merger.
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := multicast.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{0, 1, 3, 4}, true); err != nil {
		t.Fatal(err)
	}
	shr := ComputeSHR(tr)
	cands := enumerateFull(tr, f4F, shr, nil, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	seen := map[graph.NodeID]bool{}
	for _, c := range cands {
		if seen[c.Merger] {
			t.Errorf("duplicate merger %d", c.Merger)
		}
		seen[c.Merger] = true
		if c.Connection.First() != c.Merger || c.Connection.Last() != f4F {
			t.Errorf("connection endpoints wrong: %v", c.Connection)
		}
		for _, n := range c.Connection[1:] {
			if n != f4F && tr.OnTree(n) {
				t.Errorf("connection %v passes through on-tree node %d", c.Connection, n)
			}
		}
		if err := c.Connection.Validate(g); err != nil {
			t.Errorf("invalid connection: %v", err)
		}
		w, err := c.Connection.Weight(g)
		if err != nil || w != c.ConnDelay {
			t.Errorf("conn delay mismatch: %v vs %v", w, c.ConnDelay)
		}
		td, err := tr.DelayTo(c.Merger)
		if err != nil || td+c.ConnDelay != c.TotalDelay {
			t.Errorf("total delay mismatch for merger %d", c.Merger)
		}
		if c.SHR != shr[c.Merger] {
			t.Errorf("SHR mismatch for merger %d", c.Merger)
		}
	}
}

func TestEnumerateFullRespectsExtraMask(t *testing.T) {
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := multicast.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{0, 1, 3, 4}, true); err != nil {
		t.Fatal(err)
	}
	shr := ComputeSHR(tr)
	mask := graph.NewMask().BlockNode(f4D)
	for _, c := range enumerateFull(tr, f4F, shr, mask, nil) {
		if c.Merger == f4D || slices.Contains(c.Connection, f4D) {
			t.Errorf("masked node appeared in candidate %v", c.Connection)
		}
	}
}

func TestEnumerateQueryCoverageSubset(t *testing.T) {
	// Query-scheme candidates are a subset of the full candidate mergers'
	// node set (every query answer is a real on-tree node) and carry
	// consistent bookkeeping.
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := multicast.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{0, 1, 3, 4}, true); err != nil {
		t.Fatal(err)
	}
	var st Stats
	cands := enumerateQuery(new(treeView).whole(tr), f4G, nil, &st)
	if len(cands) == 0 {
		t.Fatal("query scheme found nothing")
	}
	if st.QueryMessages == 0 {
		t.Error("no query messages counted")
	}
	for _, c := range cands {
		if !tr.OnTree(c.Merger) {
			t.Errorf("merger %d not on tree", c.Merger)
		}
		if c.Connection.First() != c.Merger || c.Connection.Last() != f4G {
			t.Errorf("connection endpoints wrong: %v", c.Connection)
		}
		if err := c.Connection.Validate(g); err != nil {
			t.Errorf("invalid connection: %v", err)
		}
	}
}

func TestComputeSHREmptyTree(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := multicast.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	shr := ComputeSHR(tr)
	if len(shr) != 1 || shr[0] != 0 {
		t.Errorf("SHR of bare tree = %v", shr)
	}
}
