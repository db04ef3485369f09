package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
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

// BenchmarkEnumerateCandidates measures one pass of the selection engine
// (sweep, score, materialize the winner — the per-join hot path) against a
// ~25-member tree on a 100-node topology: bounded, as every join and reshape
// runs it first, and unbounded, the second pass of a join with nothing within
// its bound.
func BenchmarkEnumerateCandidates(b *testing.B) {
	g := benchGraph(b, 2005)
	rng := topology.NewRNG(2005)
	tr := growRandomTree(b, g, 0, 25, rng)

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
	spt := g.Dijkstra(tr.Source(), nil)
	a := &arena{sw: g.NewSweep()}
	defer a.sw.Release()
	a.view.whole(tr)

	for _, bc := range []struct {
		name       string
		bound      float64
		delayFirst bool
	}{
		{"bounded", (1 + DefaultConfig().DThresh) * spt.Dist[joiner], false},
		{"unbounded", math.Inf(1), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var st Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := selectBySweep(a, joiner, nil, spt.Dist, bc.bound, bc.delayFirst, &st); !ok {
					b.Fatal("no candidate")
				}
			}
			b.ReportMetric(float64(st.EnumSettled)/float64(b.N), "settled/op")
		})
	}
}

// BenchmarkJoinSession measures building a 30-member session from scratch —
// enumeration, path selection, SHR maintenance, and grafting together.
func BenchmarkJoinSession(b *testing.B) {
	g := benchGraph(b, 2005)
	members := topology.NewRNG(77).Sample(g.NumNodes(), 30)

	settled := 0
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
		settled += s.stats.EnumSettled
	}
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
}

// branchCutSession is the paper's regime in one session: a 100-node Waxman
// topology, 30 members, source 0 — the scenario BenchmarkRecoverBranchCut
// times and TestRecoverSettledPerMember gates.
func branchCutSession(tb testing.TB) *Session {
	tb.Helper()
	return paperSession(tb, benchGraph(tb, 2005), DefaultConfig())
}

// paperSession admits the 30 members of the paper's regime to a new session
// on g, source 0.
func paperSession(tb testing.TB, g *graph.Graph, cfg Config) *Session {
	tb.Helper()
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range topology.NewRNG(77).Sample(g.NumNodes(), 31) {
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

// leafCutSession is the large-plane regime of the benchmark's mega_admit
// workload in one session: FlatMegascale(8192), sparse tree storage, a few
// members whose tree nevertheless spans hundreds of relays.
func leafCutSession(tb testing.TB, members int) *Session {
	tb.Helper()
	g, _, err := topology.FlatMegascale(8192, 2005)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TreeStorage = StorageSparse
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range topology.NewRNG(uint64(members)).Sample(g.NumNodes(), members+1) {
		if m != 0 && s.tree.NumMembers() < members {
			if _, err := s.Join(graph.NodeID(m)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// leafCut cuts member m's own uplink, recovers and repairs.
func leafCut(tb testing.TB, s *Session, m graph.NodeID) *HealReport {
	tb.Helper()
	p, _ := s.tree.Parent(m)
	f := failure.LinkDown(m, p)
	rep, err := s.Recover(f)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Repair(f); err != nil {
		tb.Fatal(err)
	}
	return rep
}

// BenchmarkRecoverLeafCut measures the smallest restoration there is — one
// member's own uplink cut — on trees large enough for any work that follows
// the tree instead of the cut to show: flush steps (Stats.FlushVisited) and
// allocations are reported beside the clock, with the tree size they must not
// depend on.
func BenchmarkRecoverLeafCut(b *testing.B) {
	for _, members := range []int{4, 24} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			s := leafCutSession(b, members)
			ms := s.tree.Members()
			visited := s.stats.FlushVisited
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				leafCut(b, s, ms[i%len(ms)])
			}
			b.ReportMetric(float64(s.stats.FlushVisited-visited)/float64(b.N), "visited/op")
			b.ReportMetric(float64(s.tree.NumNodes()), "tree-nodes")
		})
	}
}

// TestLeafCutRestoreAllocs pins a warm single-member restoration (and its
// repair) to a handful of allocations whatever the size of the tree: the two
// reports, the heal report's lists, its records and its map, the detour (10
// measured).
// Anything sized to the tree (a surviving-node set, a member list, a node
// list) would show as the tree grows fourfold. Skipped under the race
// detector, which has the sweep and arena pools drop items at random so that
// the count is the pools'. GC is off so a collection cannot empty those pools
// mid-measurement.
func TestLeafCutRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts belong to the pools under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, members := range []int{4, 24} {
		s := leafCutSession(t, members)
		// A member with nobody below it: its uplink takes down itself alone.
		m := graph.Invalid
		for _, c := range s.tree.Members() {
			if s.tree.NumChildren(c) == 0 {
				m = c
				break
			}
		}
		if m == graph.Invalid {
			t.Fatalf("%d members: no leaf member", members)
		}
		for i := 0; i < 4; i++ { // let the scratch buffers and the mask grow
			leafCut(t, s, m)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if rep := leafCut(t, s, m); len(rep.Disconnected) != 1 {
				t.Fatalf("cut disconnected %v, want [%d]", rep.Disconnected, m)
			}
		})
		t.Logf("%d members, %d tree nodes: %.0f allocs per restore", members, s.tree.NumNodes(), allocs)
		if allocs > 11 {
			t.Errorf("%d members (%d tree nodes): %.0f allocs per single-member restore, want ≤ 11",
				members, s.tree.NumNodes(), allocs)
		}
	}
}

// settledSession is the paper's regime (branchCutSession's topology and
// members, with the SPF cache a served session has) on the given tree
// storage, reshaped until no member's check moves it any more; degraded, it
// stands on an unrepaired link and node failure off the tree. What is left is
// the reshape check as most joins pay for it: triggered, evaluated, staying
// put.
func settledSession(tb testing.TB, storage TreeStorage, degraded bool) *Session {
	tb.Helper()
	g := benchGraph(tb, 2005)
	cfg := DefaultConfig()
	cfg.TreeStorage = storage
	s := paperSession(tb, g, cfg)
	if degraded {
		var fs []failure.Failure
		for _, e := range g.Edges() {
			if !s.tree.OnTree(e.A) && !s.tree.OnTree(e.B) {
				fs = append(fs, failure.LinkDown(e.A, e.B), failure.NodeDown(e.A))
				break
			}
		}
		if len(fs) == 0 {
			tb.Fatal("no link off the tree")
		}
		s.ApplyFailure(fs...)
	}
	a := s.newArena()
	defer a.release()
	for moves := 1; moves > 0; {
		moves = 0
		for _, m := range s.tree.Members() {
			if moved, _ := s.reshapeMember(a, m); moved {
				moves++
			}
		}
	}
	return s
}

// BenchmarkReshapeCheck measures one reshape check that stays put (§3.2.3:
// the view of the tree without the member's subtree, one selection pass
// through it, the comparison with the current attachment), over the members of
// a 30-member session in turn.
func BenchmarkReshapeCheck(b *testing.B) {
	for _, bc := range []struct {
		name     string
		storage  TreeStorage
		degraded bool
	}{
		{"dense", StorageDense, false},
		{"sparse", StorageSparse, false},
		{"dense-degraded", StorageDense, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := settledSession(b, bc.storage, bc.degraded)
			ms := s.tree.Members()
			a := s.newArena()
			defer a.release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if moved, _ := s.reshapeMember(a, ms[i%len(ms)]); moved {
					b.Fatal("a settled member moved")
				}
			}
		})
	}
}

// TestReshapeCheckAllocs pins a warm reshape check that stays put at zero
// allocations, on dense and on sparse tree storage, healthy and degraded (the
// marks are NodeID-indexed and pooled with the sweep, so sparse storage costs
// no map): nothing is copied, and the subtree list, the marks, the mask and
// the sweep, with its list of the mergers it absorbed, all come out of the
// arena. The member checked is the
// one with the most nodes below it. Skipped under the race detector and run
// with GC off for the reasons TestLeafCutRestoreAllocs gives.
func TestReshapeCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts belong to the pools under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, storage := range []TreeStorage{StorageDense, StorageSparse} {
		for _, degraded := range []bool{false, true} {
			s := settledSession(t, storage, degraded)
			m, below := graph.Invalid, 0
			for _, c := range s.tree.Members() {
				if sub, _ := s.tree.SubtreeNodes(c); len(sub) > below {
					m, below = c, len(sub)
				}
			}
			check := func() {
				a := s.newArena()
				defer a.release()
				if moved, err := s.reshapeMember(a, m); moved || err != nil {
					t.Fatalf("check of settled member %d: moved = %v, err = %v", m, moved, err)
				}
			}
			check() // let the arena's buffers grow
			allocs := testing.AllocsPerRun(100, check)
			t.Logf("%v degraded=%v: member %d with %d nodes below it, %.0f allocs per check", storage, degraded, m, below-1, allocs)
			if allocs != 0 {
				t.Errorf("%v degraded=%v: %.0f allocs per warm reshape check, want 0", storage, degraded, allocs)
			}
		}
	}
}

// TestBranchCutRestoreAllocs pins what a warm multi-member restoration
// allocates to what it hands back. On branchCutSession a worst-case cut takes
// the whole tree but the source, so all k = 30 members reconnect from the tree
// side, and Recover allocates k + 8 times: the k detour paths the report
// keeps, the report, its failure list, its Disconnected list, its records, and
// four allocations inside its RD map (this toolchain's count for a map made
// with room for 30). The field, the contenders, the confined sweeps,
// their path buffer and the heal's own lists are scratch. Recover alone is
// counted, not the Repair that follows it. Skipped under the race detector and
// run with GC off for the reasons TestLeafCutRestoreAllocs gives.
func TestBranchCutRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts belong to the pools under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := branchCutSession(t)
	m := s.tree.Members()[0]
	const warmup = 8 // the first cuts take a branch, not the tree; then the scratch grows
	for i := 0; i < warmup+4; i++ {
		f, err := failure.WorstCaseFor(s.tree, m)
		if err != nil {
			t.Fatal(err)
		}
		fromTree := s.healTally.fieldEvents
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := s.Recover(f)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Repair(f); err != nil {
			t.Fatal(err)
		}
		if i < warmup {
			continue
		}
		allocs, k := int(after.Mallocs-before.Mallocs), len(rep.Recovered)
		if k != s.tree.NumMembers() || s.healTally.fieldEvents == fromTree {
			t.Fatalf("cut above %d regrafted %d of %d members, from the tree side: %v", m, k, s.tree.NumMembers(), s.healTally.fieldEvents > fromTree)
		}
		if allocs > k+8 {
			t.Errorf("%d allocs restoring %d members, want ≤ %d", allocs, k, k+8)
		}
	}
}
