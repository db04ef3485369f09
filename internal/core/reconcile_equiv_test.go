package core

import (
	"errors"
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
// nearest, so a cut that takes down k members runs k(k+1)/2 sweeps. Its
// Recover stands in for the reference session's own recovery after
// ApplyFailure, and Recover(nil) for its Reconcile.
type roundwise struct {
	s *Session
	// ties counts rounds in which two or more members were equally near.
	ties int
}

// recover is Session.Recover with the model in place of the session's heal:
// a batch that takes the source down is refused before anything changes.
func (st *roundwise) recover(fs []failure.Failure) (*HealReport, error) {
	if failure.TakesDownNode(fs, st.s.tree.Source()) {
		return nil, failure.ErrSourceFailed
	}
	st.s.ApplyFailure(fs...)
	return st.Recover(fs)
}

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
	disconnected, err := s.flush(mask)
	if err != nil {
		return nil, err
	}
	disconnected = slices.DeleteFunc(disconnected, mask.NodeBlocked)
	if len(selfFailed) > 0 {
		disconnected = append(disconnected, selfFailed...)
		slices.Sort(disconnected)
	}
	rep := &HealReport{
		Failures:         fs,
		Disconnected:     disconnected,
		RecoveryDistance: make(map[graph.NodeID]float64),
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
	rep.Recovered = make([]Recovery, 0, len(remaining))
	accept := func(n graph.NodeID) bool {
		return s.tree.OnTree(n) && !mask.NodeBlocked(n)
	}
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
		rep.Recovered = append(rep.Recovered, Recovery{Member: bestM, Detour: bestPath, RD: bestD})
		rep.RecoveryDistance[bestM] = bestD
	}
	slices.SortFunc(rep.Recovered, byMember)
	slices.Sort(rep.Unrecovered)
	slices.Sort(rep.Readmitted)

	rep.Pruned = s.tree.PruneStale()
	s.repairSHR()
	for _, m := range s.tree.Members() {
		if _, ok := s.tree.Baseline(m); !ok {
			s.recordUpSHR(m)
		}
	}
	s.notifyStrategy()
	return rep, nil
}

// tiedWeights returns g's wiring with every weight drawn from {1, 2, 3}·unit:
// equal distances — between members, and between a member's candidate
// survivors — become the rule instead of a measure-zero accident. With unit 1
// every sum is exact; with unit 0.1 the same ties hold on paper while the sum
// of a path depends on the end it is taken from ((0.1+0.2)+0.3 ≠ 0.1+(0.2+0.3)),
// which is what the tree-side engine's contenders are for.
func tiedWeights(t *testing.T, g *graph.Graph, rng *topology.RNG, unit float64) *graph.Graph {
	t.Helper()
	b := graph.New(g.NumNodes())
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.A, e.B, float64(1+rng.Intn(3))*unit); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fieldCoverage is what TestReconcileMatchesRoundwiseReference saw of the heals
// that reconnected from the tree side.
type fieldCoverage struct {
	heals, sparse, dense int
	byKind               [4]int // worst-case link, node, SRLG, link triple
	// relays: members regrafted at distance 0 by the path [m] — a pending
	// member an earlier graft of the same heal ran through. parked: members up
	// yet unrecovered, which only an exhausted field decides. readmitted:
	// previously parked members the field brought back.
	relays, parked, readmitted int
}

func (c *fieldCoverage) add(s *Session, kind int, rep *HealReport) {
	c.heals++
	if s.tree.SparseStorage() {
		c.sparse++
	} else {
		c.dense++
	}
	if kind >= 0 {
		c.byKind[kind]++
	}
	for _, r := range rep.Recovered {
		if r.RD == 0 && len(r.Detour) == 1 {
			c.relays++
		}
	}
	for _, m := range rep.Unrecovered {
		if !s.failed.NodeBlocked(m) {
			c.parked++
		}
	}
	c.readmitted += len(rep.Readmitted)
}

// TestReconcileMatchesRoundwiseReference drives a default session and one
// recovering through the round-wise reference over the same generated
// multi-failure histories and requires, after every event, the same report,
// tree, parked set and counters (the settled-node count apart, which is what
// the engines are for). The histories land on both sides of reconnect's rule,
// and the test asserts what it saw of each.
func TestReconcileMatchesRoundwiseReference(t *testing.T) {
	const eventsPerRun = 60
	var events, multi, unreachable, settledNew, settledRef int
	var rescans, ties, contended, fell int
	var field fieldCoverage
	for run := 0; run < 40; run++ {
		rng := topology.NewRNG(0x5C4E + uint64(run))
		n := 40 + 10*(run%10)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: n, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		switch run % 4 {
		case 1:
			g = tiedWeights(t, g, rng, 1)
		case 3:
			g = tiedWeights(t, g, rng, 0.1)
		}
		edges := g.Edges()
		source := graph.NodeID(rng.Intn(n))
		var members []graph.NodeID
		for _, id := range rng.Sample(n, 9+rng.Intn(25)) {
			if graph.NodeID(id) != source {
				members = append(members, graph.NodeID(id))
			}
		}

		cfg := DefaultConfig()
		if run%4 >= 2 {
			cfg.TreeStorage = StorageSparse
		}
		sut, err := NewSession(g, source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSession(g, source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		model := &roundwise{s: ref}
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
			kind := rng.Intn(4)
			switch {
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
				kind = 3
				for i := 0; i < 3; i++ {
					e := edges[rng.Intn(len(edges))]
					fs = append(fs, failure.LinkDown(e.A, e.B))
				}
			}

			fromTree := sut.healTally.fieldEvents
			got, errGot := sut.Recover(fs...)
			want, errWant := model.recover(fs)
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
				if sut.healTally.fieldEvents > fromTree {
					field.add(sut, kind, got)
				}
			}
			if rng.Intn(5) == 0 {
				fromTree := sut.healTally.fieldEvents
				got, errGot := sut.Reconcile()
				want, errWant := model.Recover(nil)
				if errGot != nil || errWant != nil {
					t.Fatalf("%s: reconcile: %v, reference %v", where, errGot, errWant)
				}
				compareHeals(t, where+" reconcile", got, want)
				if sut.healTally.fieldEvents > fromTree {
					field.add(sut, -1, got)
				}
			}
			// Repairs keep the residual network alive and send parked members
			// back through Join, so later recoveries find some of them on the
			// tree, some still parked and competing. One in four is made
			// behind the sessions' back — a domain whose agent was away while
			// its links came back: the parked stay parked with a path in
			// reach, a member that rejoins meanwhile may run its path through
			// one of them, and the Reconcile that follows readmits them all,
			// nearest first, the relay at distance 0.
			if len(down) > 0 && rng.Intn(2) == 0 {
				k := 1 + rng.Intn(len(down))
				if len(down) > 12 {
					k = len(down)
				}
				if rng.Intn(4) > 0 {
					got, errGot := sut.Repair(down[:k]...)
					want, errWant := ref.Repair(down[:k]...)
					if errGot != nil || errWant != nil {
						t.Fatalf("%s: repair: %v, reference %v", where, errGot, errWant)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: repair reports diverge:\n got  %+v\n want %+v", where, got, want)
					}
				} else {
					// Who joins meanwhile: a member again, and the first
					// bystander next to a parked one.
					var rejoin []graph.NodeID
					if ms := sut.tree.Members(); len(ms) > 0 {
						rejoin = append(rejoin, ms[rng.Intn(len(ms))])
					}
				behind:
					for _, p := range sut.Parked() {
						for _, a := range g.Neighbors(p) {
							if x := a.To; !sut.tree.OnTree(x) && !sut.parked[x] {
								rejoin = append(rejoin, x)
								break behind
							}
						}
					}
					for _, sess := range []*Session{sut, ref} {
						for _, f := range down[:k] {
							f.RemoveFrom(sess.failed)
						}
						for _, m := range rejoin {
							if sess.tree.IsMember(m) {
								if err := sess.Leave(m); err != nil {
									t.Fatalf("%s: leave %d: %v", where, m, err)
								}
							}
							if _, err := sess.Join(m); err != nil && !errors.Is(err, ErrPartitioned) && !errors.Is(err, failure.ErrMemberFailed) {
								t.Fatalf("%s: join %d: %v", where, m, err)
							}
						}
					}
					fromTree := sut.healTally.fieldEvents
					got, errGot := sut.Reconcile()
					want, errWant := model.Recover(nil)
					if errGot != nil || errWant != nil {
						t.Fatalf("%s: reconcile after a silent repair: %v, reference %v", where, errGot, errWant)
					}
					compareHeals(t, where+" reconcile after a silent repair", got, want)
					if sut.healTally.fieldEvents > fromTree {
						field.add(sut, -1, got)
					}
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
		rescans += sut.healTally.rescans
		contended += sut.healTally.contended
		fell += sut.healTally.fell
		ties += model.ties
	}

	t.Logf("%d events, %d with more than one member disconnected; %d re-extensions, %d tied rounds, %d members proven unreachable; settled %d against the reference's %d",
		events, multi, rescans, ties, unreachable, settledNew, settledRef)
	t.Logf("from the tree side: %+v; %d rounds with more than one contender, %d contenders handed out again at a lower value", field, contended, fell)
	if events < 2000 || multi <= 500 {
		t.Errorf("coverage: %d events, %d with more than one member disconnected; want ≥2000 and >500", events, multi)
	}
	if rescans == 0 || ties == 0 || unreachable == 0 {
		t.Errorf("coverage: %d re-extensions, %d tied rounds, %d members proven unreachable; want each > 0", rescans, ties, unreachable)
	}
	if field.dense == 0 || field.sparse == 0 || slices.Contains(field.byKind[:], 0) {
		t.Errorf("coverage: heals from the tree side: %d on dense and %d on sparse storage, by failure kind %v; want each > 0", field.dense, field.sparse, field.byKind)
	}
	if contended == 0 || fell == 0 || field.relays == 0 || field.parked == 0 || field.readmitted == 0 {
		t.Errorf("coverage: from the tree side %d contended rounds, %d contenders that fell, %d relays, %d parked, %d readmitted; want each > 0",
			contended, fell, field.relays, field.parked, field.readmitted)
	}
	if settledNew >= settledRef {
		t.Errorf("recorded scans settled %d nodes, the round-wise reference %d", settledNew, settledRef)
	}
}

// compareHeals requires two heal reports to agree in every field:
// Disconnected, Recovered, RecoveryDistance, Unrecovered, Readmitted, Pruned
// (and the failures they were asked to heal). It also requires got's records
// to ascend by member, each detour to start at its member, and the map to
// hold each record's RD to the bit and nothing else.
func compareHeals(t *testing.T, where string, got, want *HealReport) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: heal reports diverge:\n got  %+v\n want %+v", where, got, want)
	}
	if len(got.RecoveryDistance) != len(got.Recovered) {
		t.Fatalf("%s: %d records, %d RDs in the map", where, len(got.Recovered), len(got.RecoveryDistance))
	}
	for i, r := range got.Recovered {
		if i > 0 && got.Recovered[i-1].Member >= r.Member {
			t.Fatalf("%s: record %d is member %d, after %d", where, i, r.Member, got.Recovered[i-1].Member)
		}
		if len(r.Detour) == 0 || r.Detour[0] != r.Member {
			t.Fatalf("%s: member %d's detour %v does not start at it", where, r.Member, r.Detour)
		}
		if d, ok := got.RecoveryDistance[r.Member]; !ok || math.Float64bits(d) != math.Float64bits(r.RD) {
			t.Fatalf("%s: member %d's record says RD %v, the map %v (present %v)", where, r.Member, r.RD, d, ok)
		}
	}
}

// TestReconnectSettlesNearTiesOnTheMembersFloat is the round the draw above
// does not find: two members the same distance from the tree on paper, one of
// them by a path whose weights sum to 0.6000000000000001 from the tree's end
// and to 0.6 from the member's. The field reaches member 5 first (0.6 both
// ways); member 3 is within the slack, contends, ties on the member-side
// float and wins on ID, as the round-wise reference has it — and with 3's path
// on the tree, 5 reconnects to node 2 instead of the source.
func TestReconnectSettlesNearTiesOnTheMembersFloat(t *testing.T) {
	b := graph.New(10)
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{
		{0, 6, 0.01}, {6, 3, 0.01}, {0, 7, 0.01}, {7, 5, 0.01}, {7, 8, 0.01}, // the tree before the cut
		{0, 1, 0.1}, {1, 2, 0.2}, {2, 3, 0.3}, // 3's way back
		{0, 4, 0.3}, {4, 5, 0.3}, {5, 2, 0.4}, // 5's two ways back
		{0, 9, 0.5}, {9, 8, 0.5}, // 8's
	} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sut, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*Session{sut, ref} {
		for _, m := range []graph.NodeID{3, 5, 8} {
			if _, err := sess.Join(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	cut := []failure.Failure{failure.NodeDown(6), failure.NodeDown(7)}
	var reps [2]*HealReport
	if reps[0], err = sut.Recover(cut...); err != nil {
		t.Fatal(err)
	}
	if reps[1], err = (&roundwise{s: ref}).recover(cut); err != nil {
		t.Fatal(err)
	}
	compareHeals(t, "near tie", reps[0], reps[1])
	if sut.healTally.fieldEvents != 1 || sut.healTally.contended != 1 {
		t.Errorf("tally %+v, want one heal from the tree side with one contended round", sut.healTally)
	}
	if got, want := recoveryOf(reps[0], 5).Detour, (graph.Path{5, 2}); !slices.Equal(got, want) {
		t.Errorf("member 5 reconnected by %v, want %v: member 3 goes first", got, want)
	}
}

// sessionDiff compares the externally observable state of two sessions and
// describes the first divergence ("" when identical).
func sessionDiff(a, b *Session) string {
	ta, tb := a.Tree(), b.Tree()
	na, nb := ta.Nodes(), tb.Nodes()
	if !reflect.DeepEqual(na, nb) {
		return fmt.Sprintf("tree nodes %v vs %v", na, nb)
	}
	if ma, mb := ta.Members(), tb.Members(); !reflect.DeepEqual(ma, mb) {
		return fmt.Sprintf("members %v vs %v", ma, mb)
	}
	for _, n := range na {
		pa, oka := ta.Parent(n)
		pb, okb := tb.Parent(n)
		if pa != pb || oka != okb {
			return fmt.Sprintf("parent of %d: %d vs %d", n, pa, pb)
		}
	}
	if pa, pb := a.Parked(), b.Parked(); !reflect.DeepEqual(pa, pb) {
		return fmt.Sprintf("parked %v vs %v", pa, pb)
	}
	return ""
}
