package hierarchy

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// denseHierarchy builds a two-level hierarchy of 100-node α = 0.9 domains
// (the megascale study's) with the source in the first leaf.
func denseHierarchy(tb testing.TB) (*topology.NLevelTopology, *NLevelSession) {
	tb.Helper()
	topo, err := topology.GenerateMegascale(topology.MegascaleConfig{TargetNodes: 500, Levels: 2}, 2005)
	if err != nil {
		tb.Fatal(err)
	}
	d0 := &topo.Domains[topo.Leaves()[0]]
	src := d0.Nodes[0]
	if src == d0.Gateway {
		src = d0.Nodes[1]
	}
	hs, err := NewNLevel(topo, src, core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return topo, hs
}

// outcomes is the part of a session's counters that says what happened, as
// opposed to how much work it took.
func outcomes(st core.Stats) core.Stats {
	st.EnumSettled, st.CandidatesSeen = 0, 0
	return st
}

// TestDomainJoinMatchesUncachedFlat shows that the SPF cache a domain session
// carries changes what its operations cost and nothing of what they answer:
// joins, link cuts, recoveries, degraded joins and repairs driven through the
// hierarchy are replayed on a bare core.Session over an uncached induced
// copy of the same domain, and join results, heal and repair reports,
// trees, parked sets and outcome counters must be the same at every step —
// with strictly fewer nodes settled by the cached side's candidate sweeps.
func TestDomainJoinMatchesUncachedFlat(t *testing.T) {
	topo, hs := denseHierarchy(t)
	rng := rand.New(rand.NewSource(41))
	for _, di := range topo.Leaves() {
		cached, nm, err := hs.DomainSession(di)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Graph().SPFCacheOf() == nil {
			t.Fatalf("domain %d: session graph has no SPF cache", di)
		}
		deltas := graph.SPFCounters().DeltaRuns // the twin's graph has no cache to repair
		n := cached.Graph().NumNodes()
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			nodes[i], _ = nm.ToFull(graph.NodeID(i))
		}
		twin, err := core.NewSession(inducedCopy(t, topo.Graph, nodes), cached.Tree().Source(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cached.Tree().Members() { // the source chain's relay agent
			if _, err := twin.Join(m); err != nil {
				t.Fatal(err)
			}
		}
		same := func(what string) {
			t.Helper()
			if a, b := cached.Tree().Edges(), twin.Tree().Edges(); !slices.Equal(a, b) {
				t.Fatalf("domain %d, %s: tree %v, uncached %v", di, what, a, b)
			}
			if a, b := cached.Tree().Members(), twin.Tree().Members(); !slices.Equal(a, b) {
				t.Fatalf("domain %d, %s: members %v, uncached %v", di, what, a, b)
			}
			if a, b := cached.Parked(), twin.Parked(); !slices.Equal(a, b) {
				t.Fatalf("domain %d, %s: parked %v, uncached %v", di, what, a, b)
			}
			if a, b := outcomes(cached.Stats()), outcomes(twin.Stats()); a != b {
				t.Fatalf("domain %d, %s: stats %+v, uncached %+v", di, what, a, b)
			}
		}
		sameErr := func(what string, a, b error) {
			t.Helper()
			if (a == nil) != (b == nil) || errors.Is(a, core.ErrPartitioned) != errors.Is(b, core.ErrPartitioned) {
				t.Fatalf("domain %d, %s: error %v, uncached %v", di, what, a, b)
			}
		}

		// Receivers join through the hierarchy.
		perm := rng.Perm(n)
		var members, spare []graph.NodeID
		for _, i := range perm {
			v := graph.NodeID(i)
			if v == cached.Tree().Source() || cached.Tree().IsMember(v) {
				continue
			}
			if len(members) < 12 {
				members = append(members, v)
			} else {
				spare = append(spare, v)
			}
		}
		for _, m := range members {
			_, errT := twin.Join(m)
			sameErr("join", hs.Join(nodes[m]), errT)
			same("join")
		}
		// The sessions themselves, for the results the hierarchy keeps to itself.
		for _, m := range spare[:6] {
			ra, errA := cached.Join(m)
			rb, errB := twin.Join(m)
			sameErr("direct join", errA, errB)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("domain %d: join %d = %+v, uncached %+v", di, m, ra, rb)
			}
			same("direct join")
		}
		spare = spare[6:]

		// Each member's branch cut in turn: recover through the hierarchy, a
		// join and a leave while the link is down, repair.
		for k, m := range members {
			f, err := failure.WorstCaseFor(cached.Tree(), m)
			if err != nil {
				t.Fatal(err)
			}
			full := failure.LinkDown(nodes[f.Edge.A], nodes[f.Edge.B])
			rep, errA := hs.Recover(full)
			heal, errB := twin.Recover(f)
			if errA != nil || errB != nil {
				t.Fatalf("domain %d: recover %v: %v, uncached %v", di, f, errA, errB)
			}
			if !reflect.DeepEqual(rep.Heal, heal) {
				t.Fatalf("domain %d: recover %v = %+v, uncached %+v", di, f, rep.Heal, heal)
			}
			same("recover")

			j := spare[k]
			ra, errA := cached.Join(j)
			rb, errB := twin.Join(j)
			sameErr("degraded join", errA, errB)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("domain %d: degraded join %d = %+v, uncached %+v", di, j, ra, rb)
			}
			same("degraded join")
			if k%2 == 0 {
				sameErr("degraded leave", cached.Leave(j), twin.Leave(j))
				same("degraded leave")
			}

			sum, errA := hs.Repair(full)
			rr, errB := twin.Repair(f)
			if errA != nil || errB != nil {
				t.Fatalf("domain %d: repair %v: %v, uncached %v", di, f, errA, errB)
			}
			var readmitted []graph.NodeID
			for _, v := range rr.Readmitted {
				if slices.Contains(members, v) { // the hierarchy lists its own receivers
					readmitted = append(readmitted, nodes[v])
				}
			}
			slices.Sort(readmitted)
			if !slices.Equal(sum.Readmitted, readmitted) {
				t.Fatalf("domain %d: repair %v readmitted %v, uncached %v", di, f, sum.Readmitted, readmitted)
			}
			same("repair")
		}

		if a, b := cached.Stats().EnumSettled, twin.Stats().EnumSettled; a >= b {
			t.Fatalf("domain %d: candidate sweeps settled %d nodes with the cache, %d without", di, a, b)
		} else {
			t.Logf("domain %d: candidate sweeps settled %d nodes with the cache, %d without", di, a, b)
		}
		if a, b := cached.Stats().HealSettled, twin.Stats().HealSettled; a != b {
			t.Fatalf("domain %d: recovery scans settled %d nodes with the cache, %d without", di, a, b)
		}
		if graph.SPFCounters().DeltaRuns == deltas {
			t.Fatalf("domain %d: no degraded join was served by a delta repair of the root's tree", di)
		}
	}
}

// BenchmarkDomainJoin measures one healthy join (and the leave that undoes
// it) in a 100-node dense domain holding a dozen receivers.
func BenchmarkDomainJoin(b *testing.B) {
	topo, hs := denseHierarchy(b)
	d := &topo.Domains[topo.Leaves()[1]]
	for _, m := range d.Nodes[1:13] {
		if err := hs.Join(m); err != nil {
			b.Fatal(err)
		}
	}
	joiners := d.Nodes[13:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := joiners[i%len(joiners)]
		if err := hs.Join(m); err != nil {
			b.Fatal(err)
		}
		if err := hs.Leave(m); err != nil {
			b.Fatal(err)
		}
	}
}
