package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestStorageEquivalence is the dense-vs-sparse session oracle: two sessions
// with forced storage backends run the same randomized sequence of joins,
// batched joins, leaves, reshaping, persistent failures, recovery, and
// repair over identical Waxman topologies, and after every event all
// observable state — snapshots, SHR values, work counters, tree cost bits,
// parked sets — must be identical. This is what licenses StorageAuto to flip
// backends by topology size without perturbing any study output.
func TestStorageEquivalence(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := topology.NewRNG(0xC0FFEE00 + uint64(trial))
			n := 30 + rng.Intn(50)
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

			cfg := DefaultConfig()
			if trial%3 == 0 {
				cfg.Knowledge = QueryScheme
			}
			cfgDense, cfgSparse := cfg, cfg
			cfgDense.TreeStorage = StorageDense
			cfgSparse.TreeStorage = StorageSparse

			sd, err := NewSession(g, src, cfgDense)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := NewSession(g, src, cfgSparse)
			if err != nil {
				t.Fatal(err)
			}
			if sd.Tree().SparseStorage() || !ss.Tree().SparseStorage() {
				t.Fatal("TreeStorage force did not select the requested backend")
			}

			for op := 0; op < 120; op++ {
				r := rng.Float64()
				switch {
				case r < 0.45 || sd.Tree().NumMembers() == 0:
					m := graph.NodeID(rng.Intn(n))
					_, errD := sd.Join(m)
					_, errS := ss.Join(m)
					mustAgree(t, op, "join", errD, errS)
				case r < 0.55:
					var batch []graph.NodeID
					for len(batch) < 3 {
						batch = append(batch, graph.NodeID(rng.Intn(n)))
					}
					_, errsD := sd.JoinBatch(batch)
					_, errsS := ss.JoinBatch(slices.Clone(batch))
					for i := range errsD {
						mustAgree(t, op, "join-batch", errsD[i], errsS[i])
					}
				case r < 0.75:
					ms := sd.Tree().Members()
					m := ms[rng.Intn(len(ms))]
					mustAgree(t, op, "leave", sd.Leave(m), ss.Leave(m))
				case r < 0.82:
					sd.ReshapeAll()
					ss.ReshapeAll()
				case r < 0.94:
					var f failure.Failure
					if es := g.Edges(); rng.Intn(2) == 0 && len(es) > 0 {
						e := es[rng.Intn(len(es))]
						f = failure.LinkDown(e.A, e.B)
					} else {
						v := graph.NodeID(rng.Intn(n))
						if v == src {
							continue
						}
						f = failure.NodeDown(v)
					}
					_, errD := sd.Recover(f)
					_, errS := ss.Recover(f)
					mustAgree(t, op, "recover", errD, errS)
				default:
					_, errD := sd.Repair()
					_, errS := ss.Repair()
					mustAgree(t, op, "repair", errD, errS)
				}
				compareSessions(t, op, sd, ss)
			}
		})
	}
}

func mustAgree(t *testing.T, op int, what string, errD, errS error) {
	t.Helper()
	if (errD == nil) != (errS == nil) || (errD != nil && errD.Error() != errS.Error()) {
		t.Fatalf("op %d: %s diverges: dense=%v sparse=%v", op, what, errD, errS)
	}
}

func compareSessions(t *testing.T, op int, sd, ss *Session) {
	t.Helper()
	if sd.Stats() != ss.Stats() {
		t.Fatalf("op %d: stats diverge:\ndense:  %+v\nsparse: %+v", op, sd.Stats(), ss.Stats())
	}
	snapD, snapS := sd.Snapshot(), ss.Snapshot()
	if !reflect.DeepEqual(snapD, snapS) {
		t.Fatalf("op %d: snapshots diverge:\ndense:  %+v\nsparse: %+v", op, snapD, snapS)
	}
	if !reflect.DeepEqual(sd.SHRSnapshot(), ss.SHRSnapshot()) {
		t.Fatalf("op %d: SHR snapshots diverge", op)
	}
	if !slices.Equal(sd.Parked(), ss.Parked()) {
		t.Fatalf("op %d: parked %v != %v", op, sd.Parked(), ss.Parked())
	}
	cd, _ := sd.Tree().Cost()
	cs, _ := ss.Tree().Cost()
	if math.Float64bits(cd) != math.Float64bits(cs) {
		t.Fatalf("op %d: tree cost %v != %v", op, cd, cs)
	}
	if !slices.Equal(sd.Tree().Edges(), ss.Tree().Edges()) {
		t.Fatalf("op %d: tree edges diverge", op)
	}
	if err := sd.Tree().Validate(); err != nil {
		t.Fatalf("op %d: dense tree invalid: %v", op, err)
	}
	if err := ss.Tree().Validate(); err != nil {
		t.Fatalf("op %d: sparse tree invalid: %v", op, err)
	}
}
