package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refMaskModel is a naive map-backed oracle for Mask semantics: it tracks the
// blocked sets directly and recomputes the fingerprint from scratch on every
// query, so any incremental-maintenance or representation bug in Mask shows
// up as a divergence.
type refMaskModel struct {
	nodes map[NodeID]bool
	edges map[EdgeID]bool
}

func newRefMaskModel() *refMaskModel {
	return &refMaskModel{nodes: map[NodeID]bool{}, edges: map[EdgeID]bool{}}
}

func (r *refMaskModel) fingerprint() uint64 {
	if len(r.nodes)+len(r.edges) == 0 {
		return 0
	}
	var fp uint64
	for n := range r.nodes {
		fp ^= nodeMix(n)
	}
	for e := range r.edges {
		fp ^= edgeMix(e)
	}
	return mix64(fp ^ uint64(len(r.nodes)+len(r.edges))<<1 ^ 0x9E3779B97F4A7C15)
}

func (r *refMaskModel) clone() *refMaskModel {
	c := newRefMaskModel()
	for n := range r.nodes {
		c.nodes[n] = true
	}
	for e := range r.edges {
		c.edges[e] = true
	}
	return c
}

// diff returns the sorted (added, removed) element diff of r vs other.
func (r *refMaskModel) diff(other *refMaskModel) (added, removed []MaskElem) {
	for n := range r.nodes {
		if !other.nodes[n] {
			added = append(added, MaskElem{Node: n})
		}
	}
	for e := range r.edges {
		if !other.edges[e] {
			added = append(added, MaskElem{Edge: e, IsEdge: true})
		}
	}
	for n := range other.nodes {
		if !r.nodes[n] {
			removed = append(removed, MaskElem{Node: n})
		}
	}
	for e := range other.edges {
		if !r.edges[e] {
			removed = append(removed, MaskElem{Edge: e, IsEdge: true})
		}
	}
	slices.SortFunc(added, maskElemCompare)
	slices.SortFunc(removed, maskElemCompare)
	return added, removed
}

// maskUnderTest pairs a Mask with the oracle model.
type maskUnderTest struct {
	m   *Mask
	ref *refMaskModel
	// edgeEver records that an edge was blocked on m or on a mask it was
	// cloned or united from: until then m must not have an endpoint index.
	edgeEver bool
	// noWords records that m must hold no node words: it was born by NewMask
	// and no node was blocked on it, or it is the Clone or Union of masks
	// that blocked no node when it was taken.
	noWords bool
}

func (ut *maskUnderTest) blockNode(n NodeID) {
	ut.m.BlockNode(n)
	ut.ref.nodes[n] = true
	ut.noWords = false
}

// checkAgainstRef compares every observable of ut.m against the oracle over
// the full node/edge universe.
func (ut *maskUnderTest) checkAgainstRef(t *testing.T, universe int, label string) {
	t.Helper()
	if got, want := ut.m.Fingerprint(), ut.ref.fingerprint(); got != want {
		t.Fatalf("%s: Fingerprint=%#x want %#x", label, got, want)
	}
	if got, want := ut.m.IsEmpty(), len(ut.ref.nodes)+len(ut.ref.edges) == 0; got != want {
		t.Fatalf("%s: IsEmpty=%v want %v", label, got, want)
	}
	if ut.m.nnodes != len(ut.ref.nodes) {
		t.Fatalf("%s: nnodes=%d want %d", label, ut.m.nnodes, len(ut.ref.nodes))
	}
	if ut.noWords && ut.m.bits != nil {
		t.Fatalf("%s: %d node words allocated though no node was blocked", label, len(ut.m.bits))
	}
	// Probe slightly outside the universe too (and a negative ID) to catch
	// out-of-range bitset reads.
	for n := NodeID(-1); n < NodeID(universe+65); n++ {
		if got, want := ut.m.NodeBlocked(n), ut.ref.nodes[n]; got != want {
			t.Fatalf("%s: NodeBlocked(%d)=%v want %v", label, n, got, want)
		}
	}
	for u := NodeID(0); u < NodeID(universe); u += 3 {
		for v := u + 1; v < NodeID(universe); v += 7 {
			e := MakeEdgeID(u, v)
			want := ut.ref.edges[e] || ut.ref.nodes[u] || ut.ref.nodes[v]
			if got := ut.m.EdgeBlocked(u, v); got != want {
				t.Fatalf("%s: EdgeBlocked(%d,%d)=%v want %v", label, u, v, got, want)
			}
		}
	}
	// The endpoint index is a recount of the blocked edges, and a mask that
	// has none (its own or inherited through Clone/Union) never allocated it.
	ends := make([]int32, max(universe, len(ut.m.ends)))
	for e := range ut.m.edges {
		ends[e.A]++
		ends[e.B]++
	}
	for n, want := range ends {
		got := int32(0)
		if n < len(ut.m.ends) {
			got = ut.m.ends[n]
		}
		if got != want || ut.m.touchesBlockedEdge(NodeID(n)) != (want > 0) {
			t.Fatalf("%s: node %d is an endpoint of %d blocked edges, index says %d (touches=%v)",
				label, n, want, got, ut.m.touchesBlockedEdge(NodeID(n)))
		}
	}
	if !ut.edgeEver && ut.m.ends != nil {
		t.Fatalf("%s: endpoint index allocated (%d entries) though no edge was ever blocked", label, len(ut.m.ends))
	}
	// Each lists the blocked set: nodes first, in ascending ID order, then
	// the directly blocked edges.
	var nodes []NodeID
	edges := map[EdgeID]bool{}
	ut.m.Each(func(el MaskElem) {
		if el.IsEdge {
			edges[el.Edge] = true
		} else if len(edges) > 0 {
			t.Fatalf("%s: Each listed node %d after an edge", label, el.Node)
		} else {
			nodes = append(nodes, el.Node)
		}
	})
	if !slices.IsSorted(nodes) || len(slices.Compact(slices.Clone(nodes))) != len(nodes) {
		t.Fatalf("%s: Each listed nodes out of ascending order: %v", label, nodes)
	}
	if len(nodes) != len(ut.ref.nodes) || len(edges) != len(ut.ref.edges) {
		t.Fatalf("%s: Each listed %d nodes and %d edges, want %d and %d",
			label, len(nodes), len(edges), len(ut.ref.nodes), len(ut.ref.edges))
	}
	for _, n := range nodes {
		if !ut.ref.nodes[n] {
			t.Fatalf("%s: Each listed unblocked node %d", label, n)
		}
	}
	for e := range edges {
		if !ut.ref.edges[e] {
			t.Fatalf("%s: Each listed unblocked edge %v", label, e)
		}
	}
}

// TestMaskBitsetEquivalence drives randomized op sequences against three Mask
// instances sharing one oracle: one born by NewMask (its node words grow on
// demand), one pre-sized for the universe by NewMaskWithCapacity, and one
// pre-sized deliberately tiny (so growth past a capacity is exercised). All
// observables — Block/Unblock, Clone, Union, Fingerprint, appendDiff, Each
// — must match the oracle, and after every step the endpoint index of the
// blocked edges equals a recount of them. Round 0 blocks no edge: Clone and
// Union must then leave the index unallocated. Round 1 blocks no node: the
// NewMask-born masks, their clones and their unions must hold no node words.
func TestMaskBitsetEquivalence(t *testing.T) {
	const universe = 200 // several bitset words
	rounds := 40
	ops := 400
	if testing.Short() {
		rounds, ops = 8, 200
	}
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(int64(7919*round + 13)))
		variants := []*maskUnderTest{
			{m: NewMask(), ref: newRefMaskModel(), noWords: true},
			{m: NewMaskWithCapacity(universe), ref: newRefMaskModel()},
			{m: NewMaskWithCapacity(1), ref: newRefMaskModel()},
		}
		// A second op stream builds the "other" mask for Union/Diff probes.
		other := &maskUnderTest{m: NewMask(), ref: newRefMaskModel(), noWords: true}
		if r.Intn(2) == 0 {
			other = &maskUnderTest{m: NewMaskWithCapacity(universe / 2), ref: newRefMaskModel()}
		}

		for i := 0; i < ops; i++ {
			n := NodeID(r.Intn(universe))
			v := NodeID(r.Intn(universe))
			target := variants
			if r.Intn(4) == 0 {
				target = []*maskUnderTest{other}
			}
			switch op := r.Intn(10); {
			case op < 4: // block node (weighted: grow the sets)
				if round != 1 {
					for _, ut := range target {
						ut.blockNode(n)
					}
				}
			case op < 6:
				for _, ut := range target {
					ut.m.UnblockNode(n)
					delete(ut.ref.nodes, n)
				}
			case op < 8:
				if n != v && round != 0 {
					for _, ut := range target {
						ut.m.BlockEdge(n, v)
						ut.ref.edges[MakeEdgeID(n, v)] = true
						ut.edgeEver = true
					}
				}
			case op < 9:
				if n != v {
					for _, ut := range target {
						ut.m.UnblockEdge(n, v)
						delete(ut.ref.edges, MakeEdgeID(n, v))
					}
				}
			default: // negative-ID block must be a no-op
				for _, ut := range target {
					ut.m.BlockNode(NodeID(-1 - r.Intn(3)))
				}
			}

			if i%37 == 0 || i == ops-1 {
				for vi, ut := range variants {
					ut.checkAgainstRef(t, universe, "variant")
					other.checkAgainstRef(t, universe, "other")

					// Clone: deep and independent; node words only if a node
					// is blocked.
					cl := &maskUnderTest{m: ut.m.Clone(), ref: ut.ref.clone(),
						edgeEver: len(ut.ref.edges) > 0, noWords: len(ut.ref.nodes) == 0}
					cl.checkAgainstRef(t, universe, "clone")
					cl.blockNode(NodeID(universe + vi)) // mutate the clone only
					cl.checkAgainstRef(t, universe+8, "clone+mutate")
					ut.checkAgainstRef(t, universe, "original after clone mutate")

					un := &maskUnderTest{m: ut.m.Union(other.m), ref: ut.ref.clone(),
						edgeEver: len(ut.ref.edges)+len(other.ref.edges) > 0,
						noWords:  len(ut.ref.nodes)+len(other.ref.nodes) == 0}
					for nn := range other.ref.nodes {
						un.ref.nodes[nn] = true
					}
					for ee := range other.ref.edges {
						un.ref.edges[ee] = true
					}
					un.checkAgainstRef(t, universe, "union")

					// The SPF cache's diff against other's sorted
					// elements, both directions.
					wantA, wantR := ut.ref.diff(other.ref)
					gotA, gotR, ok := ut.m.appendDiff(nil, nil, other.m.sortedElems(), DefaultDiffLimit)
					if wantOK := len(wantA)+len(wantR) <= DefaultDiffLimit; ok != wantOK {
						t.Fatalf("appendDiff ok=%v want %v (|added|=%d |removed|=%d)", ok, wantOK, len(wantA), len(wantR))
					} else if ok && (!slices.Equal(gotA, wantA) || !slices.Equal(gotR, wantR)) {
						t.Fatalf("appendDiff mismatch:\n got  %v / %v\n want %v / %v", gotA, gotR, wantA, wantR)
					}
				}
			}
		}
	}
}

// TestMaskPresizedEdgeEnds pins that a mask pre-sized for n nodes sizes its
// edge-end counters for them on the first blocked edge: a later cut with a
// higher endpoint allocates nothing, as a session's restores rely on.
func TestMaskPresizedEdgeEnds(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin")
	}
	const n = 8192
	m := NewMaskWithCapacity(n).BlockEdge(0, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.BlockEdge(n-2, n-1)
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("blocking an edge at the top of a pre-sized mask made %d allocations, want 0", d)
	}
}

// TestMaskFingerprintInsertionOrder checks that the same blocked set
// fingerprints identically whether built forward or in reverse, into a
// pre-sized mask or one whose words grow, and that unblocking everything
// restores the empty fingerprint exactly.
func TestMaskFingerprintInsertionOrder(t *testing.T) {
	const n = 150 // several bitset words
	a := NewMask()
	b := NewMaskWithCapacity(n)
	for i := 0; i < n; i++ {
		a.BlockNode(NodeID(i))
		b.BlockNode(NodeID(n - 1 - i)) // reverse order: XOR must not care
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ by insertion order: %#x vs %#x", a.Fingerprint(), b.Fingerprint())
	}
	for i := 0; i < n; i++ {
		a.UnblockNode(NodeID(i))
		b.UnblockNode(NodeID(i))
	}
	if a.Fingerprint() != 0 || b.Fingerprint() != 0 || !a.IsEmpty() || !b.IsEmpty() {
		t.Fatalf("unblock round-trip did not restore empty: %#x %#x", a.Fingerprint(), b.Fingerprint())
	}
}

// TestMaskBitsetISPFLineage runs the SPF cache's delta-repair path with
// evolving masks and compares every tree it returns bit-for-bit against a
// from-scratch sweep. This pins the repair-base diff path — appendDiff feeding
// ispfRepair — to full-recompute ground truth, and asserts that small mask
// diffs do take it.
func TestMaskBitsetISPFLineage(t *testing.T) {
	g := ispfTestGraph(t)
	c := g.SPFCacheOf()

	r := rand.New(rand.NewSource(99))
	edges := g.Edges()
	// The session mask, evolving by small deltas so the cache's tryDelta
	// path (prev entry → appendDiff → repair) fires.
	mask := NewMask()
	src := NodeID(0)
	deltasBefore := SPFCounters().DeltaRuns
	for step := 0; step < 120; step++ {
		switch r.Intn(4) {
		case 0:
			mask.BlockNode(NodeID(r.Intn(g.NumNodes())))
		case 1:
			mask.UnblockNode(NodeID(r.Intn(g.NumNodes())))
		case 2:
			e := edges[r.Intn(len(edges))]
			mask.BlockEdge(e.A, e.B)
		default:
			e := edges[r.Intn(len(edges))]
			mask.UnblockEdge(e.A, e.B)
		}
		if mask.NodeBlocked(src) {
			mask.UnblockNode(src)
		}
		got := c.Dijkstra(src, mask)
		want := g.dijkstra(src, mask)
		if !slices.Equal(got.parent, want.parent) || !slices.Equal(got.Dist, want.Dist) {
			t.Fatalf("step %d: cached tree diverges from fresh sweep", step)
		}
	}
	if SPFCounters().DeltaRuns == deltasBefore {
		t.Fatal("delta-repair path never exercised; base diff over bitset masks untested")
	}
}
