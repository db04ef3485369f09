package graph

import (
	"math/rand"
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

// maskUnderTest pairs a Mask (in whichever representation its op history has
// driven it to) with the oracle model.
type maskUnderTest struct {
	m   *Mask
	ref *refMaskModel
	// edgeEver records that an edge was blocked on m or on a mask it was
	// cloned or united from: until then m must not have an endpoint index.
	edgeEver bool
}

// checkAgainstRef compares every observable of ut.m against the oracle over
// the full node/edge universe.
func (ut *maskUnderTest) checkAgainstRef(t *testing.T, universe int, label string) {
	t.Helper()
	if got, want := ut.m.Fingerprint(), ut.ref.fingerprint(); got != want {
		t.Fatalf("%s: Fingerprint=%#x want %#x (repr bits=%v)", label, got, want, ut.m.bits != nil)
	}
	if got, want := ut.m.IsEmpty(), len(ut.ref.nodes)+len(ut.ref.edges) == 0; got != want {
		t.Fatalf("%s: IsEmpty=%v want %v", label, got, want)
	}
	if ut.m.nnodes != len(ut.ref.nodes) {
		t.Fatalf("%s: nnodes=%d want %d", label, ut.m.nnodes, len(ut.ref.nodes))
	}
	// Probe slightly outside the universe too (and a negative ID) to catch
	// out-of-range bitset reads.
	for n := NodeID(-1); n < NodeID(universe+65); n++ {
		if got, want := ut.m.NodeBlocked(n), ut.ref.nodes[n]; got != want {
			t.Fatalf("%s: NodeBlocked(%d)=%v want %v (repr bits=%v)", label, n, got, want, ut.m.bits != nil)
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
	var blocked []NodeID
	ut.m.eachBlockedNode(func(n NodeID) { blocked = append(blocked, n) })
	if len(blocked) != len(ut.ref.nodes) {
		t.Fatalf("%s: eachBlockedNode visited %d nodes, want %d", label, len(blocked), len(ut.ref.nodes))
	}
	for _, n := range blocked {
		if !ut.ref.nodes[n] {
			t.Fatalf("%s: eachBlockedNode visited unblocked node %d", label, n)
		}
	}
}

// TestMaskBitsetEquivalence drives randomized op sequences against three Mask
// instances sharing one oracle: one born map-backed (promoting mid-sequence
// once the threshold is crossed), one born bitset-backed via
// NewMaskWithCapacity, and one born bitset-backed with a deliberately tiny
// capacity (so the grow-on-demand path is exercised). All observables —
// Block/Unblock, Clone, Union, Fingerprint, DiffElements — must be
// representation-independent, and after every step the endpoint index of the
// blocked edges equals a recount of them. The first round blocks no edge at
// all: promotion, Clone and Union must then leave the index unallocated.
func TestMaskBitsetEquivalence(t *testing.T) {
	const universe = 200 // > 3×maskPromoteThreshold so promotion is guaranteed reachable
	rounds := 40
	ops := 400
	if testing.Short() {
		rounds, ops = 8, 200
	}
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(int64(7919*round + 13)))
		variants := []*maskUnderTest{
			{m: NewMask(), ref: newRefMaskModel()},
			{m: NewMaskWithCapacity(universe), ref: newRefMaskModel()},
			{m: NewMaskWithCapacity(1), ref: newRefMaskModel()},
		}
		if variants[0].m.bits != nil || variants[1].m.bits == nil || variants[2].m.bits == nil {
			t.Fatal("constructor representations not as expected")
		}
		// A second op stream builds the "other" mask for Union/Diff probes.
		other := &maskUnderTest{m: NewMask(), ref: newRefMaskModel()}
		if r.Intn(2) == 0 {
			other.m = NewMaskWithCapacity(universe / 2)
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
				for _, ut := range target {
					ut.m.BlockNode(n)
					ut.ref.nodes[n] = true
				}
			case op < 6:
				for _, ut := range target {
					ut.m.UnblockNode(n)
					delete(ut.ref.nodes, n)
				}
			case op < 8:
				if n != v && round > 0 {
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

					// Clone: deep, representation-preserving, independent.
					cl := &maskUnderTest{m: ut.m.Clone(), ref: ut.ref.clone(), edgeEver: len(ut.ref.edges) > 0}
					if (cl.m.bits != nil) != (ut.m.bits != nil) {
						t.Fatalf("Clone changed representation")
					}
					cl.m.BlockNode(NodeID(universe + vi)) // mutate the clone only
					cl.ref.nodes[NodeID(universe+vi)] = true
					cl.checkAgainstRef(t, universe+8, "clone+mutate")
					ut.checkAgainstRef(t, universe, "original after clone mutate")

					// Union across representations.
					un := &maskUnderTest{m: ut.m.Union(other.m), ref: ut.ref.clone(), edgeEver: len(ut.ref.edges)+len(other.ref.edges) > 0}
					for nn := range other.ref.nodes {
						un.ref.nodes[nn] = true
					}
					for ee := range other.ref.edges {
						un.ref.edges[ee] = true
					}
					un.checkAgainstRef(t, universe, "union")

					// DiffElements across representations, both directions.
					wantA, wantR := ut.ref.diff(other.ref)
					gotA, gotR, ok := ut.m.DiffElements(other.m)
					if wantOK := len(wantA)+len(wantR) <= DefaultDiffLimit; ok != wantOK {
						t.Fatalf("DiffElements ok=%v want %v (|added|=%d |removed|=%d)", ok, wantOK, len(wantA), len(wantR))
					} else if ok && (!slices.Equal(gotA, wantA) || !slices.Equal(gotR, wantR)) {
						t.Fatalf("DiffElements mismatch:\n got  %v / %v\n want %v / %v", gotA, gotR, wantA, wantR)
					}
				}
			}
		}
	}
}

// TestMaskCrossRepresentationFingerprint checks that the same blocked set
// fingerprints identically whether reached via map, promoted map, or
// capacity-bound bitset, and that block/unblock round-trips restore the
// empty fingerprint exactly.
func TestMaskCrossRepresentationFingerprint(t *testing.T) {
	const n = 150 // crosses maskPromoteThreshold
	a := NewMask()
	b := NewMaskWithCapacity(n)
	for i := 0; i < n; i++ {
		a.BlockNode(NodeID(i))
		b.BlockNode(NodeID(n - 1 - i)) // reverse order: XOR must not care
	}
	if a.bits == nil {
		t.Fatal("map mask did not promote past threshold")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ across representations: %#x vs %#x", a.Fingerprint(), b.Fingerprint())
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
// bitset-backed masks under the crosscheck oracle (the same verification
// SMRP_ISPF_CHECK=1 enables in production): every delta-repaired tree is
// compared bit-for-bit against a from-scratch sweep. This pins the
// lineage-diff path — AppendDiff over mixed/bitset representations feeding
// ispfRepair — to full-recompute ground truth.
func TestMaskBitsetISPFLineage(t *testing.T) {
	prev := ispfCrosscheck
	ispfCrosscheck = true
	defer func() { ispfCrosscheck = prev }()

	g := ispfTestGraph(t)
	c := g.EnableSPFCache()
	defer g.DisableSPFCache()

	r := rand.New(rand.NewSource(99))
	edges := g.Edges()
	// The session mask: bitset-backed from birth, evolving by small deltas so
	// the cache's tryDelta lineage path (prev entry → AppendDiff → repair)
	// fires. The cache clones the mask per entry, so every stored lineage
	// mask is bitset-backed too.
	mask := NewMaskWithCapacity(g.NumNodes())
	src := NodeID(0)
	deltasBefore := c.DeltaRepairs()
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
		got := c.Dijkstra(src, mask) // panics inside crosscheck on any divergence
		want := g.dijkstra(src, mask)
		if !slices.Equal(got.Parent, want.Parent) || !slices.Equal(got.Dist, want.Dist) {
			t.Fatalf("step %d: cached tree diverges from fresh sweep", step)
		}
	}
	if c.DeltaRepairs() == deltasBefore {
		t.Fatal("delta-repair path never exercised; lineage diff over bitset masks untested")
	}
}
