package mrc

import (
	"errors"
	"reflect"
	"testing"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestClassPartition checks the configuration construction across random
// topologies: every assigned node sits in exactly one class, the class table
// and the per-configuration masks agree, and — the MRC safety property —
// removing any single class leaves the residual graph connected.
func TestClassPartition(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 2005} {
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 40, Alpha: 0.2, Beta: 0.35, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		source := graph.NodeID(0)
		st := New(0)
		cfg := core.DefaultConfig()
		cfg.Strategy = st
		if _, err := core.NewSession(g, source, cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.k != DefaultConfigurations {
			t.Fatalf("seed %d: k = %d, want %d", seed, st.k, DefaultConfigurations)
		}
		assigned := 0
		for id, c := range st.classOf {
			v := graph.NodeID(id)
			if v == source {
				if c != -1 {
					t.Errorf("seed %d: source assigned to class %d", seed, c)
				}
				continue
			}
			inClasses := 0
			for k, m := range st.masks {
				if m.NodeBlocked(v) {
					inClasses++
					if int32(k) != c {
						t.Errorf("seed %d: node %d blocked in config %d but classOf says %d", seed, v, k, c)
					}
				}
			}
			if c >= 0 {
				assigned++
				if inClasses != 1 {
					t.Errorf("seed %d: node %d in %d classes, want 1", seed, v, inClasses)
				}
			} else if inClasses != 0 {
				t.Errorf("seed %d: unassigned node %d blocked in %d configs", seed, v, inClasses)
			}
		}
		if assigned == 0 {
			t.Errorf("seed %d: no node assigned to any class", seed)
		}
		for k, m := range st.masks {
			if !g.Connected(m) {
				t.Errorf("seed %d: residual graph disconnected when class %d removed", seed, k)
			}
		}
		if st.StateBytes() <= 0 {
			t.Errorf("seed %d: StateBytes = %d, want > 0", seed, st.StateBytes())
		}
		if st.PrecomputeSettled() <= 0 {
			t.Errorf("seed %d: PrecomputeSettled = %d, want > 0", seed, st.PrecomputeSettled())
		}
	}
}

// TestRecoverPaperFig1 plays the paper's Figure-1 example against MRC. With
// k=2 the greedy assignment isolates {A, C} in config 0 and {B, D} in config
// 1. Failing L_AD, the config isolating A routes D over S→B→D, so MRC
// recovers D at RD 4 where SMRP's reactive local detour finds D→C at RD 2 —
// the precomputed-state-vs-recovery-quality trade the testbed measures.
func TestRecoverPaperFig1(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	st := New(2)
	cfg := core.DefaultConfig()
	cfg.DThresh = 0 // SPF tree: S→A→C, S→A→D
	cfg.Strategy = st
	s, err := core.NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		if _, err := s.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Recover(failure.LinkDown(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Disconnected) != 1 || rep.Disconnected[0] != 4 {
		t.Fatalf("disconnected = %v, want [4]", rep.Disconnected)
	}
	if rd := rep.RecoveryDistance[4]; rd != 4 {
		t.Errorf("RD = %v, want 4 (config route S→B→D)", rd)
	}
	if want := (graph.Path{4, 2, 0}); !reflect.DeepEqual(rep.Detours[4], want) {
		t.Errorf("detour = %v, want %v", rep.Detours[4], want)
	}
	if fb := s.Stats().StrategyFallbacks; fb != 0 {
		t.Errorf("fallbacks = %d, want 0 (config hit)", fb)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Errorf("tree invalid after recovery: %v", err)
	}
}

// TestUnbound pins the not-precomputed error contract.
func TestUnbound(t *testing.T) {
	if _, err := New(2).Recover(nil); !errors.Is(err, core.ErrUnboundStrategy) {
		t.Errorf("Recover on unbound strategy = %v, want ErrUnboundStrategy", err)
	}
}

// TestRecoverIgnoresBatchOrder: a correlated batch names a set of failures,
// and the order it lists them in (a node's links come in the order of its
// adjacency row) must not reach the recovery. Each SRLG batch is healed by
// two sessions, one given the batch as listed and one given it reversed;
// RecoveryDistance, Detours, Unrecovered and Stats must come out identical.
// Batches whose links fall in two or more isolation classes are the ones an
// order could decide, and some must occur.
func TestRecoverIgnoresBatchOrder(t *testing.T) {
	multiClass := 0
	for seed := uint64(1); seed <= 40; seed++ {
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 50, Alpha: 0.25, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		members := rng.Sample(g.NumNodes()-1, 15)
		hub := graph.NodeID(1 + rng.Intn(g.NumNodes()-1))
		batch := failure.SRLG(g, hub)
		reversed := make([]failure.Failure, len(batch))
		for i, f := range batch {
			reversed[len(batch)-1-i] = f
		}
		heal := func(fs []failure.Failure) (*core.HealReport, core.Stats, *Strategy) {
			st := New(0)
			cfg := core.DefaultConfig()
			cfg.Strategy = st
			s, err := core.NewSession(g, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range members {
				if _, err := s.Join(graph.NodeID(m + 1)); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := s.Recover(fs...)
			if err != nil {
				t.Fatal(err)
			}
			return rep, s.Stats(), st
		}
		a, aStats, st := heal(batch)
		b, bStats, _ := heal(reversed)
		classes := map[int32]bool{}
		for _, f := range batch {
			for _, v := range []graph.NodeID{f.Edge.A, f.Edge.B} {
				if c := st.classOf[v]; c >= 0 {
					classes[c] = true
				}
			}
		}
		if len(classes) > 1 {
			multiClass++
		}
		if !reflect.DeepEqual(a.RecoveryDistance, b.RecoveryDistance) || !reflect.DeepEqual(a.Detours, b.Detours) ||
			!reflect.DeepEqual(a.Unrecovered, b.Unrecovered) || aStats != bStats {
			t.Errorf("seed %d, links of node %d: listed order heals to RD %v detours %v unrecovered %v stats %+v;\nreversed to RD %v detours %v unrecovered %v stats %+v",
				seed, hub, a.RecoveryDistance, a.Detours, a.Unrecovered, aStats, b.RecoveryDistance, b.Detours, b.Unrecovered, bStats)
		}
	}
	if multiClass == 0 {
		t.Fatal("no batch spans two isolation classes; the order went untested")
	}
}
