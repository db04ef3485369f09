package core

import (
	"fmt"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/topology"
)

// bruteEnumerate is a reference copy of the pre-sweep enumerateFull: one full
// masked Dijkstra per on-tree merger, with every other on-tree node blocked.
// The property test below holds the sweep-based enumerator to exact equality
// against it; keep this in sync with the enumerateFull doc comment, not with
// its implementation.
func bruteEnumerate(t *multicast.Tree, joiner graph.NodeID, shr map[graph.NodeID]int, extraMask *graph.Mask) []Candidate {
	g := t.Graph()
	treeNodes := t.Nodes()
	out := make([]Candidate, 0, len(treeNodes))
	for _, merger := range treeNodes {
		if extraMask.NodeBlocked(merger) {
			continue
		}
		mask := extraMask.Clone()
		for _, n := range treeNodes {
			if n != merger {
				mask.BlockNode(n)
			}
		}
		conn, d := g.ShortestPath(merger, joiner, mask)
		if conn == nil {
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

// growRandomTree builds a multicast tree rooted at src by grafting the SPF
// path of k randomly chosen members, mirroring how the experiment harness
// seeds sessions. Members that are unreachable or already on-tree are
// skipped.
func growRandomTree(tb testing.TB, g *graph.Graph, src graph.NodeID, k int, rng *topology.RNG) *multicast.Tree {
	tb.Helper()
	tr, err := multicast.New(g, src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, idx := range rng.Sample(g.NumNodes(), k) {
		m := graph.NodeID(idx)
		if tr.OnTree(m) {
			continue
		}
		p, _ := g.ShortestPath(src, m, nil)
		if p == nil {
			continue
		}
		// The SPF path may re-enter the tree at intermediate nodes; graft
		// each maximal off-tree run from its on-tree predecessor.
		for i := 1; i < len(p); i++ {
			if tr.OnTree(p[i]) {
				continue
			}
			j := i
			for j+1 < len(p) && !tr.OnTree(p[j+1]) {
				j++
			}
			if err := tr.Graft(p[i-1:j+1], j == len(p)-1); err != nil {
				tb.Fatal(err)
			}
			i = j
		}
	}
	return tr
}

// TestEnumerateFullMatchesBruteForce is the tentpole's safety net: across 60
// randomized Waxman topologies the single absorbing-sweep enumerator must
// produce exactly the per-merger brute-force candidate set — same mergers in
// the same order, bit-identical ConnDelay/TotalDelay, node-for-node identical
// connections — both with a nil extra mask and with a random node/edge mask
// (the reshaping case).
func TestEnumerateFullMatchesBruteForce(t *testing.T) {
	const topologies = 60
	for trial := 0; trial < topologies; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := topology.NewRNG(0x5EED2005 + uint64(trial))
			n := 20 + rng.Intn(41) // 20..60 nodes
			g, err := topology.Waxman(topology.WaxmanConfig{
				N:               n,
				Alpha:           0.15 + 0.2*rng.Float64(),
				Beta:            topology.DefaultBeta,
				EnsureConnected: true,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			src := graph.NodeID(rng.Intn(n))
			tr := growRandomTree(t, g, src, 3+rng.Intn(6), rng)
			shr := ComputeSHR(tr)

			// Off-tree joiners: every off-tree node gets checked on small
			// graphs; cap the work on larger ones.
			joiners := make([]graph.NodeID, 0, n)
			for v := 0; v < n; v++ {
				if !tr.OnTree(graph.NodeID(v)) {
					joiners = append(joiners, graph.NodeID(v))
				}
			}
			if len(joiners) > 8 {
				joiners = joiners[:8]
			}
			for _, joiner := range joiners {
				masks := []*graph.Mask{nil}
				// A random extra mask exercises the reshaping path. Blocking
				// the joiner itself is legal (both sides must yield nothing).
				m := graph.NewMask().BlockNode(graph.NodeID(rng.Intn(n)))
				if es := g.Edges(); len(es) > 0 {
					e := es[rng.Intn(len(es))]
					m.BlockEdge(e.A, e.B)
				}
				masks = append(masks, m)

				for mi, mask := range masks {
					want := bruteEnumerate(tr, joiner, shr, mask)
					got := enumerateFull(tr, joiner, shr, mask, nil)
					if len(got) != len(want) {
						t.Fatalf("joiner %d mask %d: %d candidates, want %d",
							joiner, mi, len(got), len(want))
					}
					for i := range want {
						w, gc := want[i], got[i]
						if gc.Merger != w.Merger {
							t.Fatalf("joiner %d mask %d cand %d: merger %d, want %d",
								joiner, mi, i, gc.Merger, w.Merger)
						}
						if gc.ConnDelay != w.ConnDelay || gc.TotalDelay != w.TotalDelay {
							t.Fatalf("joiner %d mask %d merger %d: delays (%v,%v), want (%v,%v)",
								joiner, mi, w.Merger, gc.ConnDelay, gc.TotalDelay, w.ConnDelay, w.TotalDelay)
						}
						if gc.SHR != w.SHR {
							t.Fatalf("joiner %d mask %d merger %d: SHR %d, want %d",
								joiner, mi, w.Merger, gc.SHR, w.SHR)
						}
						if len(gc.Connection) != len(w.Connection) {
							t.Fatalf("joiner %d mask %d merger %d: path %v, want %v",
								joiner, mi, w.Merger, gc.Connection, w.Connection)
						}
						for j := range w.Connection {
							if gc.Connection[j] != w.Connection[j] {
								t.Fatalf("joiner %d mask %d merger %d: path %v, want %v",
									joiner, mi, w.Merger, gc.Connection, w.Connection)
							}
						}
					}
				}
			}
		})
	}
}
