package core

import (
	"math/rand"
	"testing"

	"smrp/internal/graph"
)

// TestSparseSessionFootprintGate is the megascale standing-memory CI gate
// from ROADMAP item 2: at N = 10⁵ with a 64-member group, a sparse-storage
// session's deterministic MemoryFootprint must be at most 5% of the dense
// backend's on the same topology and membership. Footprints are
// element-count accounting (never live heap), so this gate is exact and
// machine-independent.
func TestSparseSessionFootprintGate(t *testing.T) {
	const (
		n       = 100_000
		extra   = 200_000
		members = 64
	)
	rng := rand.New(rand.NewSource(2005))
	b := graph.New(n)
	linked := map[graph.EdgeID]bool{}
	// Random-attachment spanning structure (expected depth O(log n)) plus
	// uniform extra edges: a small-diameter random topology, the regime the
	// megascale studies run in.
	for i := 1; i < n; i++ {
		u := graph.NodeID(rng.Intn(i))
		linked[graph.MakeEdgeID(graph.NodeID(i), u)] = true
		_ = b.AddEdge(graph.NodeID(i), u, 1+rng.Float64())
	}
	for i := 0; i < extra; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if e := graph.MakeEdgeID(u, v); u != v && !linked[e] {
			linked[e] = true
			_ = b.AddEdge(u, v, 1+rng.Float64())
		}
	}
	g := b.Freeze()

	joiners := make([]graph.NodeID, 0, members)
	seen := map[graph.NodeID]bool{0: true}
	for len(joiners) < members {
		m := graph.NodeID(rng.Intn(n))
		if !seen[m] {
			seen[m] = true
			joiners = append(joiners, m)
		}
	}

	cfg := DefaultConfig()
	cfg.ReshapeDelta = 0 // memory gate, not a reshaping test: keep joins cheap

	build := func(storage TreeStorage) *Session {
		c := cfg
		c.TreeStorage = storage
		s, err := NewSession(g, 0, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, errs := s.JoinBatch(joiners); errs != nil {
			for _, err := range errs {
				if err != nil {
					t.Fatalf("join: %v", err)
				}
			}
		}
		return s
	}

	dense := build(StorageDense)
	sparse := build(StorageSparse)
	if dense.Tree().NumMembers() != members || sparse.Tree().NumMembers() != members {
		t.Fatalf("fixture broken: %d/%d members joined", dense.Tree().NumMembers(), sparse.Tree().NumMembers())
	}
	if dense.Stats() != sparse.Stats() {
		t.Fatalf("backends diverged:\ndense:  %+v\nsparse: %+v", dense.Stats(), sparse.Stats())
	}

	db, sb := dense.MemoryFootprint(), sparse.MemoryFootprint()
	t.Logf("standing bytes: dense %d, sparse %d (%.2f%%), tree size %d nodes",
		db, sb, 100*float64(sb)/float64(db), sparse.Tree().NumNodes())
	if sb*20 > db {
		t.Fatalf("sparse session standing bytes %d exceed 5%% of dense %d", sb, db)
	}

	// StorageAuto must have picked sparse at this scale.
	auto := cfg
	auto.TreeStorage = StorageAuto
	s, err := NewSession(g, 0, auto)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Tree().SparseStorage() {
		t.Fatalf("StorageAuto chose dense storage at N=%d (threshold %d)", n, SparseNodeThreshold)
	}
}
