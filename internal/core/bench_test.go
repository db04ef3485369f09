package core

import (
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// benchGraph builds an evaluation-scale Waxman topology (paper-style, 100
// nodes) deterministically.
func benchGraph(tb testing.TB, seed uint64) *graph.Graph {
	tb.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		N:               100,
		Alpha:           0.2,
		Beta:            topology.DefaultBeta,
		EnsureConnected: true,
	}, topology.NewRNG(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkEnumerateCandidates measures one full candidate enumeration (the
// per-join hot path) against a ~25-member tree on a 100-node topology.
func BenchmarkEnumerateCandidates(b *testing.B) {
	g := benchGraph(b, 2005)
	rng := topology.NewRNG(2005)
	tr := growRandomTree(b, g, 0, 25, rng)
	shr := denseSHRFor(tr)

	// A deterministic off-tree joiner.
	joiner := graph.Invalid
	for v := g.NumNodes() - 1; v >= 0; v-- {
		if !tr.OnTree(graph.NodeID(v)) {
			joiner = graph.NodeID(v)
			break
		}
	}
	if joiner == graph.Invalid {
		b.Fatal("no off-tree joiner")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enumerateFull(tr, joiner, shr, nil, nil)
	}
}

// BenchmarkJoinSession measures building a 30-member session from scratch —
// enumeration, path selection, SHR maintenance, and grafting together.
func BenchmarkJoinSession(b *testing.B) {
	g := benchGraph(b, 2005)
	members := topology.NewRNG(77).Sample(g.NumNodes(), 30)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(g, 0, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range members {
			if graph.NodeID(m) == 0 {
				continue
			}
			if _, err := s.Join(graph.NodeID(m)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// branchCutSession is the paper's regime in one session: a 100-node Waxman
// topology, 30 members, source 0 — the scenario BenchmarkRecoverBranchCut
// times and TestRecoverSettledPerMember gates.
func branchCutSession(tb testing.TB) *Session {
	tb.Helper()
	s, err := NewSession(benchGraph(tb, 2005), 0, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range topology.NewRNG(77).Sample(s.g.NumNodes(), 31) {
		if m != 0 && s.tree.NumMembers() < 30 {
			if _, err := s.Join(graph.NodeID(m)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// branchCut cuts member m's worst-case link (the source-incident link of its
// tree path, §4.3.1), recovers, repairs, and returns the heal report with the
// nodes its recovery scans settled.
func branchCut(tb testing.TB, s *Session, m graph.NodeID) (*HealReport, int) {
	tb.Helper()
	f, err := failure.WorstCaseFor(s.tree, m)
	if err != nil {
		tb.Fatal(err)
	}
	before := s.stats.HealSettled
	rep, err := s.Recover(f)
	if err != nil {
		tb.Fatal(err)
	}
	settled := s.stats.HealSettled - before
	if _, err := s.Repair(f); err != nil {
		tb.Fatal(err)
	}
	return rep, settled
}

// BenchmarkRecoverBranchCut measures one worst-case restoration — every
// member below a source-incident link reconnecting nearest-first — with the
// deterministic work beside the clock: nodes settled by the recovery scans
// and members disconnected, per restoration.
func BenchmarkRecoverBranchCut(b *testing.B) {
	s := branchCutSession(b)
	members := s.tree.Members()
	var settled, cut int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, n := branchCut(b, s, members[i%len(members)])
		settled += n
		cut += len(rep.Disconnected)
	}
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	b.ReportMetric(float64(cut)/float64(b.N), "members/op")
}
