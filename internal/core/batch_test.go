package core

import (
	"fmt"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// snapshotSession captures everything observable about a session the batch
// path must reproduce exactly: the tree (nodes, parents, membership), member
// delays, SHR values, the parked set, and the work counters the two paths
// are required to agree on.
type sessionSnapshot struct {
	parents map[graph.NodeID]graph.NodeID
	members []graph.NodeID
	delays  map[graph.NodeID]float64
	shr     map[graph.NodeID]int
	parked  []graph.NodeID
	stats   Stats
}

func snapshot(t *testing.T, s *Session) sessionSnapshot {
	t.Helper()
	tr := s.Tree()
	snap := sessionSnapshot{
		parents: make(map[graph.NodeID]graph.NodeID),
		delays:  make(map[graph.NodeID]float64),
		members: tr.Members(),
		shr:     s.SHRSnapshot(),
		parked:  s.Parked(),
		stats:   s.Stats(),
	}
	for _, n := range tr.Nodes() {
		p, _ := tr.Parent(n)
		snap.parents[n] = p
		d, err := tr.DelayTo(n)
		if err != nil {
			t.Fatalf("DelayTo(%d): %v", n, err)
		}
		snap.delays[n] = d
	}
	return snap
}

// equalJoinResults compares two JoinResults field for field, bit-exact on the
// floats.
func equalJoinResults(a, b *JoinResult) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Member != b.Member || a.Merger != b.Merger || a.Delay != b.Delay ||
		a.SPFDelay != b.SPFDelay || a.MergerSHR != b.MergerSHR ||
		a.WithinBound != b.WithinBound {
		return false
	}
	if len(a.Connection) != len(b.Connection) || len(a.Reshaped) != len(b.Reshaped) {
		return false
	}
	for i := range a.Connection {
		if a.Connection[i] != b.Connection[i] {
			return false
		}
	}
	for i := range a.Reshaped {
		if a.Reshaped[i] != b.Reshaped[i] {
			return false
		}
	}
	return true
}

// TestJoinBatchBitIdentical is the batched-join equivalence property test:
// across randomized topologies, configurations, failure masks, and joiner
// lists (including duplicates, already-members, failed and partitioned
// joiners), JoinBatch must leave the session in exactly the state sequential
// Join calls do — same tree, same delays, same SHR values, same parked set,
// same per-joiner results and errors, and the same counters, sweep work
// included (apart from BatchJoins, which only the batch counts): both arms
// prune with the same lower bound.
func TestJoinBatchBitIdentical(t *testing.T) {
	const topologies = 50
	for trial := 0; trial < topologies; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := topology.NewRNG(0xBA7C4 + uint64(trial))
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
			degraded := trial%4 >= 2
			cfg := DefaultConfig()
			cfg.DThresh = 0.1 + 0.4*rng.Float64()
			cfg.ReshapeDelta = rng.Intn(4) // 0 disables Condition I

			src := graph.NodeID(rng.Intn(n))
			seq, err := NewSession(g, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewSession(g, src, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Seed both sessions with a few members the ordinary way.
			for _, idx := range rng.Sample(n, 3) {
				m := graph.NodeID(idx)
				if m == src {
					continue
				}
				if _, err := seq.Join(m); err != nil {
					continue
				}
				if _, err := bat.Join(m); err != nil {
					t.Fatalf("seed join diverged for %d: %v", m, err)
				}
			}

			// Some trials run degraded: a random failure exercises the masked
			// SPF, parking, and ErrPartitioned paths inside the batch.
			if degraded {
				var f failure.Failure
				if es := g.Edges(); rng.Intn(2) == 0 && len(es) > 0 {
					e := es[rng.Intn(len(es))]
					f = failure.LinkDown(e.A, e.B)
				} else {
					down := graph.NodeID(rng.Intn(n))
					if down == src {
						down = (down + 1) % graph.NodeID(n)
					}
					f = failure.NodeDown(down)
				}
				seq.ApplyFailure(f)
				bat.ApplyFailure(f)
			}

			// A flash crowd with deliberate dirt: duplicates, the source, and
			// already-on-tree nodes all appear so error paths are compared too.
			k := 4 + rng.Intn(13) // 4..16 joiners
			joiners := make([]graph.NodeID, 0, k)
			for i := 0; i < k; i++ {
				joiners = append(joiners, graph.NodeID(rng.Intn(n)))
			}

			seqRes := make([]*JoinResult, len(joiners))
			seqErr := make([]error, len(joiners))
			for i, nr := range joiners {
				seqRes[i], seqErr[i] = seq.Join(nr)
			}
			batRes, batErr := bat.JoinBatch(joiners)

			for i := range joiners {
				if (seqErr[i] == nil) != (batErr[i] == nil) {
					t.Fatalf("joiner %d (%d): err %v vs %v", i, joiners[i], seqErr[i], batErr[i])
				}
				if seqErr[i] != nil && seqErr[i].Error() != batErr[i].Error() {
					t.Fatalf("joiner %d (%d): err %q vs %q", i, joiners[i], seqErr[i], batErr[i])
				}
				if !equalJoinResults(seqRes[i], batRes[i]) {
					t.Fatalf("joiner %d (%d): result %+v vs %+v", i, joiners[i], seqRes[i], batRes[i])
				}
			}

			a, b := snapshot(t, seq), snapshot(t, bat)
			if len(a.parents) != len(b.parents) {
				t.Fatalf("tree size %d vs %d", len(a.parents), len(b.parents))
			}
			for n, p := range a.parents {
				if b.parents[n] != p {
					t.Fatalf("node %d parent %d vs %d", n, p, b.parents[n])
				}
				if a.delays[n] != b.delays[n] {
					t.Fatalf("node %d delay %v vs %v", n, a.delays[n], b.delays[n])
				}
			}
			if fmt.Sprint(a.members) != fmt.Sprint(b.members) {
				t.Fatalf("members %v vs %v", a.members, b.members)
			}
			if fmt.Sprint(a.parked) != fmt.Sprint(b.parked) {
				t.Fatalf("parked %v vs %v", a.parked, b.parked)
			}
			if fmt.Sprint(a.shr) != fmt.Sprint(b.shr) {
				t.Fatalf("SHR %v vs %v", a.shr, b.shr)
			}

			as, bs := a.stats, b.stats
			okJoins := 0
			for i := range batErr {
				if batErr[i] == nil {
					okJoins++
				}
			}
			if bs.BatchJoins != okJoins {
				t.Fatalf("BatchJoins = %d, want %d (successful batch joiners)", bs.BatchJoins, okJoins)
			}
			as.BatchJoins, bs.BatchJoins = 0, 0
			if as != bs {
				t.Fatalf("stats diverged:\nseq   %+v\nbatch %+v", as, bs)
			}
		})
	}
}

// TestJoinBatchEmpty pins the trivial cases: an empty batch does nothing and
// allocates no machinery, and a batch of one behaves exactly like Join.
func TestJoinBatchEmpty(t *testing.T) {
	s := fig4Session(t, DefaultConfig())
	res, errs := s.JoinBatch(nil)
	if len(res) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d results, %d errors", len(res), len(errs))
	}
	if st := s.Stats(); st.Joins != 0 || st.BatchJoins != 0 {
		t.Fatalf("empty batch did work: %+v", st)
	}
}
