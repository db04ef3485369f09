package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/topology"
)

// walkFlush is the flush the mask-driven one replaced, kept as the slow model
// it is held to: walk the whole surviving tree into a set, list the tree's
// nodes for the dead roots and its members for the disconnected and the
// self-failed, sweep the tree for stale relays, list the members again for
// baselines. It plugs in through the strategy seam; the reconnect loop between
// its prologue and its epilogue is the production one.
type walkFlush struct {
	s *Session
}

func (st *walkFlush) Name() string                { return "walk-flush" }
func (st *walkFlush) Precompute(s *Session) error { st.s = s; return nil }
func (st *walkFlush) StateBytes() int64           { return 0 }

func (st *walkFlush) Recover(fs []failure.Failure) (*HealReport, error) {
	h, err := st.beginHeal(fs)
	if err != nil {
		return nil, err
	}
	if err := st.s.reconnect(h); err != nil {
		return nil, err
	}
	return st.endHeal(h), nil
}

// disconnectedAmong is the parent commit's failure.DisconnectedAmong.
func disconnectedAmong(s *Session, mask *graph.Mask, surviving map[graph.NodeID]bool) []graph.NodeID {
	var out []graph.NodeID
	for _, m := range s.tree.Members() {
		if !surviving[m] && !mask.NodeBlocked(m) {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// walkDeadRoots is the dead-root scan of the parent commit's FlushDead.
func walkDeadRoots(s *Session, surviving map[graph.NodeID]bool) []graph.NodeID {
	var deadRoots []graph.NodeID
	for _, n := range s.tree.Nodes() {
		if surviving[n] || n == s.tree.Source() {
			continue
		}
		p, ok := s.tree.Parent(n)
		if ok && (p == graph.Invalid || surviving[p]) {
			deadRoots = append(deadRoots, n)
		}
	}
	return deadRoots
}

// flushDead is the parent commit's (*Session).FlushDead, verbatim but for
// DetachSubtree's new signature.
func (st *walkFlush) flushDead(mask *graph.Mask) ([]graph.NodeID, error) {
	s := st.s
	surviving := failure.SurvivingNodes(s.tree, mask)
	if len(surviving) == 0 {
		return nil, failure.ErrSourceFailed
	}
	disconnected := disconnectedAmong(s, mask, surviving)
	for _, r := range walkDeadRoots(s, surviving) {
		if !s.tree.OnTree(r) {
			continue
		}
		if _, err := s.tree.DetachSubtree(r, nil); err != nil {
			return nil, fmt.Errorf("flush dead: %w", err)
		}
	}
	for _, m := range disconnected {
		s.tree.ClearBaseline(m)
	}
	s.repairSHR()
	return disconnected, nil
}

// beginHeal is the parent commit's (*Session).beginHeal, verbatim.
func (st *walkFlush) beginHeal(fs []failure.Failure) (*heal, error) {
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
	disconnected, err := st.flushDead(mask)
	if err != nil {
		return nil, err
	}
	if len(selfFailed) > 0 {
		disconnected = append(disconnected, selfFailed...)
		slices.Sort(disconnected)
	}
	h := &heal{
		rep: &HealReport{
			Failures:         fs,
			Disconnected:     disconnected,
			RecoveryDistance: make(map[graph.NodeID]float64),
			Detours:          make(map[graph.NodeID]graph.Path),
		},
		mask:      mask,
		wasParked: make(map[graph.NodeID]bool, len(s.parked)),
	}
	if len(fs) > 0 {
		h.rep.Failure = fs[0]
	}
	for m := range s.parked {
		if !mask.NodeBlocked(m) && !s.tree.IsMember(m) {
			h.todo = append(h.todo, m)
			h.wasParked[m] = true
		}
	}
	for _, m := range disconnected {
		if mask.NodeBlocked(m) {
			s.park(m)
			h.rep.Unrecovered = append(h.rep.Unrecovered, m)
			continue
		}
		h.todo = append(h.todo, m)
	}
	slices.Sort(h.todo)
	return h, nil
}

// endHeal is the parent commit's (*Session).endHeal, verbatim but for the
// regrafted branches, which regraft no longer collects.
func (st *walkFlush) endHeal(h *heal) *HealReport {
	s := st.s
	rep := h.rep
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
	return rep
}

// flushCase is what one generated event looks like from the tree it hits,
// worked out before the flush by walking that tree: the reference's dead
// roots, how many candidates the mask names on the tree and how many mask
// elements miss it, and the most steps the flush may take.
type flushCase struct {
	roots      []graph.NodeID
	candidates int
	offTree    int
	maskElems  int
	// bound is |mask| + Σ over dead roots (depth + |subtree|), depth being
	// that of the subtree's deepest node: the one walk a dead subtree costs
	// starts from whichever of its candidates comes first. Prune hops are
	// added once the heal has reported them.
	bound int
}

func inspectFlush(t *testing.T, s *Session, mask *graph.Mask) flushCase {
	t.Helper()
	var c flushCase
	c.roots = walkDeadRoots(s, failure.SurvivingNodes(s.tree, mask))
	cands := map[graph.NodeID]bool{}
	mask.Each(func(e graph.MaskElem) {
		c.maskElems++
		n := e.Node
		if e.IsEdge {
			switch {
			case parentOf(s, e.Edge.A) == e.Edge.B:
				n = e.Edge.A
			case parentOf(s, e.Edge.B) == e.Edge.A:
				n = e.Edge.B
			default: // not a tree edge
				c.offTree++
				return
			}
		}
		if !s.tree.OnTree(n) {
			c.offTree++
			return
		}
		cands[n] = true
	})
	c.candidates = len(cands)
	c.bound = c.maskElems
	for _, r := range c.roots {
		if !cands[r] {
			t.Fatalf("dead root %d is no candidate of the mask", r)
		}
		up, err := s.tree.PathToSource(r)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := s.tree.SubtreeNodes(r)
		if err != nil {
			t.Fatal(err)
		}
		deepest := 0
		for _, n := range sub {
			p, _ := s.tree.PathToSource(n)
			deepest = max(deepest, len(p)-len(up))
		}
		c.bound += len(up) - 1 + deepest + len(sub)
	}
	return c
}

// shrColumn reads t's whole SHR column through reflection, slot by slot: the
// values of nodes that left the tree too, which decide what later repairs
// count as writes and which Tree.SHR does not answer for.
func shrColumn(t *multicast.Tree) []int64 {
	col := reflect.ValueOf(t).Elem().FieldByName("shr")
	out := make([]int64, col.Len())
	for i := range out {
		out[i] = col.Index(i).Int()
	}
	return out
}

// baselines returns the Condition-I baselines s stores, by node.
func baselines(s *Session) map[graph.NodeID]int {
	out := map[graph.NodeID]int{}
	for n := range graph.NodeID(s.g.NumNodes()) {
		if v, ok := s.tree.Baseline(n); ok {
			out[n] = v
		}
	}
	return out
}

func parentOf(s *Session, n graph.NodeID) graph.NodeID {
	p, _ := s.tree.Parent(n)
	return p
}

// maskDeadRoots is the production primitive run as a query: the roots
// failure.DeadRoots reports when nothing is detached, as a sorted set.
func maskDeadRoots(t *testing.T, s *Session, mask *graph.Mask) []graph.NodeID {
	t.Helper()
	var roots []graph.NodeID
	if _, _, err := failure.DeadRoots(s.tree, mask, nil, func(root graph.NodeID) error {
		roots = append(roots, root)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(roots)
	return slices.Compact(roots)
}

// TestFlushMatchesTreeWalk drives a default session and one flushing through
// the tree-walk reference over the same generated multi-failure histories —
// link, node and SRLG cuts, two cuts on one member's path, members that fail
// themselves, cuts that miss the tree, masks that build up over events with
// partial repairs in between, Reconcile with nothing new, and flushes made the
// way the protocol layer makes them, which leave stale relays for a later heal
// — on both tree storage backends and both SHR modes. Before every flush the
// mask-driven dead roots must be the walk's; after every event reports, trees,
// epochs, parked sets, Condition-I baselines, SHR columns and counters must be
// equal, and Stats.FlushVisited within its bound.
func TestFlushMatchesTreeWalk(t *testing.T) {
	const eventsPerRun = 60
	var events, nested, selfFailed, offTree, missed, staleLeft, stalePruned, reconciles, multiRoot, readmitted int
	var visited, walked int
	for run := 0; run < 40; run++ {
		rng := topology.NewRNG(0xF1A5 + uint64(run))
		n := 40 + 10*(run%10)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: n, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
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
		cfg.TreeStorage = []TreeStorage{StorageDense, StorageSparse}[run%2]
		sut, err := NewSession(g, source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		model := &walkFlush{}
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
			ms := sut.tree.Members()
			switch kind := rng.Intn(7); {
			case kind == 0 && len(ms) > 0:
				f, err := failure.WorstCaseFor(sut.tree, ms[rng.Intn(len(ms))])
				if err != nil {
					continue // the member is the source
				}
				fs = []failure.Failure{f}
			case kind == 1:
				fs = []failure.Failure{failure.NodeDown(graph.NodeID(rng.Intn(n)))}
			case kind == 2:
				fs = failure.SRLG(g, graph.NodeID(rng.Intn(n)))
			case kind == 3 && len(ms) > 0:
				// Two cuts on one member's path: the lower candidate lies in
				// the subtree the upper one roots.
				up, err := sut.tree.PathToSource(ms[rng.Intn(len(ms))])
				if err != nil || len(up) < 3 {
					continue
				}
				lo := rng.Intn(len(up) - 2)
				hi := lo + 1 + rng.Intn(len(up)-2-lo)
				fs = []failure.Failure{failure.LinkDown(up[lo], up[lo+1])}
				if rng.Intn(2) == 0 && up[hi] != source {
					fs = append(fs, failure.NodeDown(up[hi]))
				} else {
					fs = append(fs, failure.LinkDown(up[hi], up[hi+1]))
				}
			case kind == 4 && len(ms) > 0:
				// A member fails itself.
				m := ms[rng.Intn(len(ms))]
				if m == source {
					continue
				}
				fs = []failure.Failure{failure.NodeDown(m)}
			default:
				for i := 0; i < 3; i++ {
					e := edges[rng.Intn(len(edges))]
					fs = append(fs, failure.LinkDown(e.A, e.B))
				}
			}
			if failure.TakesDownNode(fs, source) {
				_, errGot := sut.Recover(fs...)
				_, errWant := ref.Recover(fs...)
				if errGot != failure.ErrSourceFailed || errWant != failure.ErrSourceFailed {
					t.Fatalf("%s: source failure: error %v, reference %v", where, errGot, errWant)
				}
				continue
			}

			// Recover is ApplyFailure + dispatchRecover; taken apart here so
			// the tree can be inspected under the folded mask, before the flush.
			sut.ApplyFailure(fs...)
			ref.ApplyFailure(fs...)
			down = append(down, fs...)
			mask := sut.maskOrNil()
			c := inspectFlush(t, sut, mask)
			if got := maskDeadRoots(t, sut, mask); !slices.Equal(got, c.roots) {
				t.Fatalf("%s: dead roots %v, the walk finds %v", where, got, c.roots)
			}
			events++
			nested += c.candidates - len(c.roots)
			offTree += c.offTree
			if len(c.roots) > 1 {
				multiRoot++
			}
			hints := len(sut.stale)
			before := sut.stats.FlushVisited

			if rng.Intn(6) == 0 {
				// A flush on its own, then member-by-member regrafts along
				// local detours and no prune: a later heal prunes what it left.
				got, errGot := sut.flush(mask)
				got = slices.DeleteFunc(got, mask.NodeBlocked) // members that failed themselves are gone
				want, errWant := model.flushDead(mask)
				if errGot != nil || errWant != nil {
					t.Fatalf("%s: flush: %v, reference %v", where, errGot, errWant)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: flush disconnected %v, reference %v", where, got, want)
				}
				if d := sut.stats.FlushVisited - before; d > c.bound {
					t.Fatalf("%s: flush visited %d, bound %d", where, d, c.bound)
				}
				for _, m := range got {
					_, p, _ := g.NearestOf(m, mask, func(x graph.NodeID) bool {
						return sut.tree.OnTree(x) && !mask.NodeBlocked(x)
					})
					if p == nil {
						continue // cut off: the protocol layer gives up on it
					}
					if err := graftDetour(sut, p.Reverse()); err != nil {
						t.Fatalf("%s: regraft %d: %v", where, m, err)
					}
					if err := graftDetour(ref, p.Reverse()); err != nil {
						t.Fatalf("%s: reference regraft %d: %v", where, m, err)
					}
				}
				staleLeft += len(sut.tree.Clone().PruneStale())
			} else {
				stale := len(sut.tree.Clone().PruneStale())
				got, errGot := sut.dispatchRecover(fs)
				want, errWant := ref.dispatchRecover(fs)
				if errGot != nil || errWant != nil {
					t.Fatalf("%s: recover %v: error %v, reference %v", where, fs, errGot, errWant)
				}
				compareHeals(t, where, got, want)
				for _, m := range got.Disconnected {
					if mask.NodeBlocked(m) {
						selfFailed++
					}
				}
				if stale > 0 {
					// Relays an earlier protocol-style flush left behind: this
					// heal's prune must have taken them.
					stalePruned += stale
					if left := sut.tree.Clone().PruneStale(); len(left) > 0 {
						t.Fatalf("%s: stale relays %v survive the heal", where, left)
					}
				}
				prune := hints + len(c.roots) + len(got.Pruned)
				d := sut.stats.FlushVisited - before
				if d > c.bound+prune {
					t.Fatalf("%s: flush visited %d, bound %d (+%d prune hops)", where, d, c.bound, prune)
				}
				if c.candidates == 0 {
					// A cut that misses the tree costs the mask and nothing else.
					missed++
					if d != c.maskElems+hints+len(got.Pruned) {
						t.Fatalf("%s: cut misses the tree: visited %d with %d mask elements, %d standing hints, %d pruned",
							where, d, c.maskElems, hints, len(got.Pruned))
					}
				}
				visited += d
				walked += c.maskElems + sut.tree.NumNodes()
			}
			if rng.Intn(5) == 0 {
				got, errGot := sut.Reconcile()
				want, errWant := ref.Reconcile()
				if errGot != nil || errWant != nil {
					t.Fatalf("%s: reconcile: %v, reference %v", where, errGot, errWant)
				}
				compareHeals(t, where+" reconcile", got, want)
				reconciles++
			}
			if len(down) > 0 && rng.Intn(8) == 0 {
				// Components come back while recovery is suspended (a domain
				// whose agent was down): the mask shrinks without Repair's
				// joins, and it is the next heal that re-admits the parked.
				k := 1 + rng.Intn(len(down))
				for _, f := range down[:k] {
					f.RemoveFrom(sut.failed)
					f.RemoveFrom(ref.failed)
				}
				down = down[k:]
				got, errGot := sut.Reconcile()
				want, errWant := ref.Reconcile()
				if errGot != nil || errWant != nil {
					t.Fatalf("%s: reconcile after lifting failures: %v, reference %v", where, errGot, errWant)
				}
				compareHeals(t, where+" reconcile after lifting failures", got, want)
				readmitted += len(got.Readmitted)
			}
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
			if a, b := sut.tree.Epoch(), ref.tree.Epoch(); a != b {
				t.Fatalf("%s: tree epoch %d, reference %d", where, a, b)
			}
			if a, b := baselines(sut), baselines(ref); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: Condition-I baselines diverge:\n got  %v\n want %v", where, a, b)
			}
			if a, b := shrColumn(sut.tree), shrColumn(ref.tree); !slices.Equal(a, b) {
				t.Fatalf("%s: SHR columns diverge:\n got  %v\n want %v", where, a, b)
			}
			a, b := sut.Snapshot(), ref.Snapshot()
			a.Stats.FlushVisited, b.Stats.FlushVisited = 0, 0 // the reference's walk counts nothing
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: snapshots diverge:\n got  %+v\n want %+v", where, a, b)
			}
			if err := sut.tree.Validate(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}

	t.Logf("%d events (%d with several dead roots, %d reconciles): %d nested candidates, %d self-failed members, %d mask elements off the tree, %d cuts missing it; %d stale relays left by protocol-style flushes, %d pruned by the next heal, %d parked members re-admitted by a heal; %d steps against the walk's %d",
		events, multiRoot, reconciles, nested, selfFailed, offTree, missed, staleLeft, stalePruned, readmitted, visited, walked)
	if events < 1500 || multiRoot == 0 || reconciles == 0 {
		t.Errorf("coverage: %d events, %d with several dead roots, %d reconciles", events, multiRoot, reconciles)
	}
	if nested == 0 || selfFailed == 0 || offTree == 0 || missed == 0 || staleLeft == 0 || stalePruned == 0 || readmitted == 0 {
		t.Errorf("coverage: %d nested candidates, %d self-failed, %d off-tree mask elements, %d cuts missing the tree, %d stale relays left, %d pruned, %d re-admitted by a heal; want each > 0",
			nested, selfFailed, offTree, missed, staleLeft, stalePruned, readmitted)
	}
	if visited >= walked {
		t.Errorf("the flush took %d steps, a walk of the tree and the mask %d", visited, walked)
	}
}
