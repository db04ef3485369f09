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

// TestDomainJoinMatchesFlatCopy shows that a domain session over a view of
// the one graph, with the view's own SPF cache, answers and works as a flat
// session over a copy of the domain does: joins, link cuts, recoveries,
// degraded joins and repairs driven through the hierarchy are replayed on a
// bare core.Session over an induced copy of the same domain, and join
// results, heal and repair reports, trees, parked sets and every counter,
// the candidate sweeps' settled nodes included, must be the same at every
// step.
func TestDomainJoinMatchesFlatCopy(t *testing.T) {
	topo, hs := denseHierarchy(t)
	rng := rand.New(rand.NewSource(41))
	for _, di := range topo.Leaves() {
		dom, nm, err := hs.DomainSession(di)
		if err != nil {
			t.Fatal(err)
		}
		degraded := 0 // degraded joins admitted: point queries under the view's mask
		n := dom.Graph().NumNodes()
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			nodes[i], _ = nm.ToFull(graph.NodeID(i))
		}
		twin, err := core.NewSession(inducedCopy(t, topo.Graph, nodes), dom.Tree().Source(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range dom.Tree().Members() { // the source chain's relay agent
			if _, err := twin.Join(m); err != nil {
				t.Fatal(err)
			}
		}
		same := func(what string) {
			t.Helper()
			if a, b := dom.Tree().Edges(), twin.Tree().Edges(); !slices.Equal(a, b) {
				t.Fatalf("domain %d, %s: tree %v, copy %v", di, what, a, b)
			}
			if a, b := dom.Tree().Members(), twin.Tree().Members(); !slices.Equal(a, b) {
				t.Fatalf("domain %d, %s: members %v, copy %v", di, what, a, b)
			}
			if a, b := dom.Parked(), twin.Parked(); !slices.Equal(a, b) {
				t.Fatalf("domain %d, %s: parked %v, copy %v", di, what, a, b)
			}
			if a, b := dom.Stats(), twin.Stats(); a != b {
				t.Fatalf("domain %d, %s: stats %+v, copy %+v", di, what, a, b)
			}
		}
		sameErr := func(what string, a, b error) {
			t.Helper()
			if (a == nil) != (b == nil) || errors.Is(a, core.ErrPartitioned) != errors.Is(b, core.ErrPartitioned) {
				t.Fatalf("domain %d, %s: error %v, copy %v", di, what, a, b)
			}
		}

		// Receivers join through the hierarchy.
		perm := rng.Perm(n)
		var members, spare []graph.NodeID
		for _, i := range perm {
			v := graph.NodeID(i)
			if v == dom.Tree().Source() || dom.Tree().IsMember(v) {
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
			ra, errA := dom.Join(m)
			rb, errB := twin.Join(m)
			sameErr("direct join", errA, errB)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("domain %d: join %d = %+v, copy %+v", di, m, ra, rb)
			}
			same("direct join")
		}
		spare = spare[6:]

		// Each member's branch cut in turn: recover through the hierarchy, a
		// join and a leave while the link is down, repair.
		for k, m := range members {
			f, err := failure.WorstCaseFor(dom.Tree(), m)
			if err != nil {
				t.Fatal(err)
			}
			full := failure.LinkDown(nodes[f.Edge.A], nodes[f.Edge.B])
			rep, errA := hs.Recover(full)
			heal, errB := twin.Recover(f)
			if errA != nil || errB != nil {
				t.Fatalf("domain %d: recover %v: %v, copy %v", di, f, errA, errB)
			}
			if !reflect.DeepEqual(rep.Heal, heal) {
				t.Fatalf("domain %d: recover %v = %+v, copy %+v", di, f, rep.Heal, heal)
			}
			same("recover")

			j := spare[k]
			ra, errA := dom.Join(j)
			rb, errB := twin.Join(j)
			sameErr("degraded join", errA, errB)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("domain %d: degraded join %d = %+v, copy %+v", di, j, ra, rb)
			}
			same("degraded join")
			if errA == nil {
				degraded++
			}
			if k%2 == 0 {
				sameErr("degraded leave", dom.Leave(j), twin.Leave(j))
				same("degraded leave")
			}

			sum, errA := hs.Repair(full)
			rr, errB := twin.Repair(f)
			if errA != nil || errB != nil {
				t.Fatalf("domain %d: repair %v: %v, copy %v", di, f, errA, errB)
			}
			var readmitted []graph.NodeID
			for _, v := range rr.Readmitted {
				if slices.Contains(members, v) { // the hierarchy lists its own receivers
					readmitted = append(readmitted, nodes[v])
				}
			}
			slices.Sort(readmitted)
			if !slices.Equal(sum.Readmitted, readmitted) {
				t.Fatalf("domain %d: repair %v readmitted %v, copy %v", di, f, sum.Readmitted, readmitted)
			}
			same("repair")
		}

		if degraded == 0 {
			t.Fatalf("domain %d: no degraded join was admitted", di)
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
