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

// roundwise is the reconnect engine reconcile replaced, kept as the slow
// model the recorded-scan loop is held to: every round re-sweeps every
// still-disconnected member against the tree as it stands and grafts the
// nearest, so a cut that takes down k members runs k(k+1)/2 sweeps. It plugs
// in through the strategy seam, which routes Recover and Reconcile of its
// session here and nothing else.
type roundwise struct {
	s *Session
	// ties counts rounds in which two or more members were equally near.
	ties int
}

func (st *roundwise) Name() string                { return "roundwise" }
func (st *roundwise) Precompute(s *Session) error { st.s = s; return nil }
func (st *roundwise) StateBytes() int64           { return 0 }

// Recover is the parent commit's (*Session).reconcile, verbatim but for the
// tie counter.
func (st *roundwise) Recover(fs []failure.Failure) (*HealReport, error) {
	s := st.s
	mask := s.maskOrNil()
	var selfFailed []graph.NodeID
	if mask != nil {
		for _, m := range s.tree.Members() {
			if mask.NodeBlocked(m) {
				selfFailed = append(selfFailed, m)
			}
		}
	}
	disconnected, err := s.FlushDead(mask)
	if err != nil {
		return nil, err
	}
	if len(selfFailed) > 0 {
		disconnected = append(disconnected, selfFailed...)
		slices.Sort(disconnected)
	}
	rep := &HealReport{
		Failures:         fs,
		Disconnected:     disconnected,
		RecoveryDistance: make(map[graph.NodeID]float64),
		Detours:          make(map[graph.NodeID]graph.Path),
	}
	if len(fs) > 0 {
		rep.Failure = fs[0]
	}

	remaining := make(map[graph.NodeID]bool, len(rep.Disconnected)+len(s.parked))
	wasParked := make(map[graph.NodeID]bool, len(s.parked))
	for _, m := range rep.Disconnected {
		if mask.NodeBlocked(m) {
			s.park(m)
			rep.Unrecovered = append(rep.Unrecovered, m)
			continue
		}
		remaining[m] = true
	}
	for m := range s.parked {
		if !mask.NodeBlocked(m) && !s.tree.IsMember(m) {
			remaining[m] = true
			wasParked[m] = true
		}
	}
	accept := func(n graph.NodeID) bool {
		return s.tree.OnTree(n) && !mask.NodeBlocked(n)
	}
	var dirty []graph.NodeID
	for len(remaining) > 0 {
		bestD := math.Inf(1)
		var bestM graph.NodeID = graph.Invalid
		var bestPath graph.Path
		atBest := 0
		for m := range remaining {
			_, p, d, settled := s.g.NearestOfCounted(m, mask, accept)
			s.stats.HealSettled += settled
			if p != nil && d == bestD {
				atBest++
			} else if p != nil && d < bestD {
				atBest = 1
			}
			if p != nil && (d < bestD || (d == bestD && m < bestM)) {
				bestD, bestM, bestPath = d, m, p
			}
		}
		if atBest > 1 {
			st.ties++
		}
		if bestM == graph.Invalid {
			for m := range remaining {
				if wasParked[m] {
					continue
				}
				s.park(m)
				rep.Unrecovered = append(rep.Unrecovered, m)
			}
			break
		}
		delete(remaining, bestM)
		if err := s.tree.Graft(bestPath.Reverse(), true); err != nil {
			return nil, fmt.Errorf("heal: regraft %d: %w", bestM, err)
		}
		if wasParked[bestM] {
			delete(s.parked, bestM)
			s.stats.Readmissions++
			rep.Readmitted = append(rep.Readmitted, bestM)
		}
		dirty = append(dirty, s.tree.TopAncestor(bestM))
		rep.RecoveryDistance[bestM] = bestD
		rep.Detours[bestM] = bestPath
	}
	slices.Sort(rep.Unrecovered)
	slices.Sort(rep.Readmitted)

	rep.Pruned = s.tree.PruneStale()
	s.shr.refresh(s.tree, dirty...)
	for _, m := range s.tree.Members() {
		if _, ok := s.lastUpSHR[m]; !ok {
			s.recordUpSHR(m)
		}
	}
	s.notifyStrategy()
	return rep, nil
}

// integerWeights returns g's wiring with every weight drawn from {1, 2, 3}:
// equal distances — between members, and between a member's candidate
// survivors — become the rule instead of a measure-zero accident.
func integerWeights(t *testing.T, g *graph.Graph, rng *topology.RNG) *graph.Graph {
	t.Helper()
	out := graph.New(g.NumNodes())
	for _, e := range g.Edges() {
		if err := out.AddEdge(e.A, e.B, float64(1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestReconcileMatchesRoundwiseReference drives a default session and one
// recovering through the round-wise reference over the same generated
// multi-failure histories and requires, after every event, the same report,
// tree, parked set and counters (the settled-node count apart, which is what
// the change is for).
func TestReconcileMatchesRoundwiseReference(t *testing.T) {
	const eventsPerRun = 60
	var events, multi, unreachable, settledNew, settledRef int
	var rescans, ties int
	for run := 0; run < 40; run++ {
		rng := topology.NewRNG(0x5C4E + uint64(run))
		n := 40 + 10*(run%10)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: n, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if run%2 == 1 {
			g = integerWeights(t, g, rng)
		}
		edges := g.Edges()
		source := graph.NodeID(rng.Intn(n))
		var members []graph.NodeID
		for _, id := range rng.Sample(n, 9+rng.Intn(25)) {
			if graph.NodeID(id) != source {
				members = append(members, graph.NodeID(id))
			}
		}

		sut, err := NewSession(g, source, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		model := &roundwise{}
		cfg := DefaultConfig()
		cfg.Strategy = model
		ref, err := NewSession(g, source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sess := range []*Session{sut, ref} {
			_, errs := sess.JoinBatch(members)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("run %d: join %d: %v", run, members[i], err)
				}
			}
		}

		var down []failure.Failure
		for ev := 0; ev < eventsPerRun; ev++ {
			where := fmt.Sprintf("run %d (N=%d) event %d", run, n, ev)
			var fs []failure.Failure
			switch kind := rng.Intn(4); {
			case kind == 0 && sut.tree.NumMembers() > 0:
				ms := sut.tree.Members()
				f, err := failure.WorstCaseFor(sut.tree, ms[rng.Intn(len(ms))])
				if err != nil {
					continue // the member is the source
				}
				fs = []failure.Failure{f}
			case kind == 1:
				fs = []failure.Failure{failure.NodeDown(graph.NodeID(rng.Intn(n)))}
			case kind == 2:
				fs = failure.SRLG(g, graph.NodeID(rng.Intn(n)))
			default:
				for i := 0; i < 3; i++ {
					e := edges[rng.Intn(len(edges))]
					fs = append(fs, failure.LinkDown(e.A, e.B))
				}
			}

			got, errGot := sut.Recover(fs...)
			want, errWant := ref.Recover(fs...)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s: recover %v: error %v, reference %v", where, fs, errGot, errWant)
			}
			if errGot == nil {
				down = append(down, fs...)
				events++
				if len(got.Disconnected) > 1 {
					multi++
				}
				for _, m := range got.Unrecovered {
					if !sut.failed.NodeBlocked(m) {
						unreachable++
					}
				}
				compareHeals(t, where, got, want)
			}
			if rng.Intn(5) == 0 {
				got, errGot := sut.Reconcile()
				want, errWant := ref.Reconcile()
				if errGot != nil || errWant != nil {
					t.Fatalf("%s: reconcile: %v, reference %v", where, errGot, errWant)
				}
				compareHeals(t, where+" reconcile", got, want)
			}
			// Repairs keep the residual network alive and send parked members
			// back through Join, so later recoveries find some of them on the
			// tree, some still parked and competing.
			if len(down) > 0 && rng.Intn(2) == 0 {
				k := 1 + rng.Intn(len(down))
				if len(down) > 12 {
					k = len(down)
				}
				got, errGot := sut.Repair(down[:k]...)
				want, errWant := ref.Repair(down[:k]...)
				if errGot != nil || errWant != nil {
					t.Fatalf("%s: repair: %v, reference %v", where, errGot, errWant)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: repair reports diverge:\n got  %+v\n want %+v", where, got, want)
				}
				down = down[k:]
			}

			if diff := sessionDiff(sut, ref); diff != "" {
				t.Fatalf("%s: sessions diverge: %s", where, diff)
			}
			a, b := sut.Snapshot(), ref.Snapshot()
			a.Stats.HealSettled, b.Stats.HealSettled = 0, 0
			// The reference prunes by sweeping the tree, which has no hops to
			// count (flush_equiv_test.go holds FlushVisited to its bound).
			a.Stats.FlushVisited, b.Stats.FlushVisited = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: snapshots diverge:\n got  %+v\n want %+v", where, a, b)
			}
			if err := sut.tree.Validate(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
		settledNew += sut.stats.HealSettled
		settledRef += ref.stats.HealSettled
		rescans += sut.healRescans
		ties += model.ties
	}

	t.Logf("%d events, %d with more than one member disconnected; %d re-extensions, %d tied rounds, %d members proven unreachable; settled %d against the reference's %d",
		events, multi, rescans, ties, unreachable, settledNew, settledRef)
	if events < 2000 || multi <= 500 {
		t.Errorf("coverage: %d events, %d with more than one member disconnected; want ≥2000 and >500", events, multi)
	}
	if rescans == 0 || ties == 0 || unreachable == 0 {
		t.Errorf("coverage: %d re-extensions, %d tied rounds, %d members proven unreachable; want each > 0", rescans, ties, unreachable)
	}
	if settledNew >= settledRef {
		t.Errorf("recorded scans settled %d nodes, the round-wise reference %d", settledNew, settledRef)
	}
}

// compareHeals requires two heal reports to agree in every field:
// Disconnected, RecoveryDistance, Detours, Unrecovered, Readmitted, Pruned
// (and the failures they were asked to heal).
func compareHeals(t *testing.T, where string, got, want *HealReport) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: heal reports diverge:\n got  %+v\n want %+v", where, got, want)
	}
}
