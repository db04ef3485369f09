package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// touchedDomains is the oracle's own reading of the attribution table: a link
// belongs to the deepest domain holding both ends, a gateway uplink to the
// parent; a node failure hits the node's domain and, for a gateway, the
// parent too.
func touchedDomains(nt *topology.NLevelTopology, fs []failure.Failure) map[int]bool {
	out := make(map[int]bool)
	for _, f := range fs {
		if f.Kind == failure.NodeFailure {
			d := nt.DomainOf(f.Node)
			out[d] = true
			if p := nt.Domains[d].Parent; p != -1 && nt.Domains[d].Gateway == f.Node {
				out[p] = true
			}
			continue
		}
		da, db := nt.DomainOf(f.Edge.A), nt.DomainOf(f.Edge.B)
		if nt.Domains[da].Level > nt.Domains[db].Level {
			da = db // an uplink: the shallower end's domain is the parent
		}
		out[da] = true
	}
	return out
}

// hierOracle checks the hierarchical invariants after one event.
type hierOracle struct {
	t   *testing.T
	s   *NLevelSession
	src graph.NodeID
}

// reached is the oracle's ground truth for delivery: the nodes the stream
// physically gets to, flooding from the source over the tree edges of every
// live domain (a down domain forwards nothing; domains meet at the gateways
// they share).
func (o hierOracle) reached() map[graph.NodeID]bool {
	adj := make(map[graph.NodeID][]graph.NodeID)
	for i := 0; i < o.s.NumDomains(); i++ {
		sess, nm, _ := o.s.DomainSession(i)
		if sess.FailedMask().NodeBlocked(sess.Tree().Source()) {
			continue
		}
		for _, e := range sess.Tree().Edges() {
			a, _ := nm.ToFull(e.A)
			b, _ := nm.ToFull(e.B)
			adj[a], adj[b] = append(adj[a], b), append(adj[b], a)
		}
	}
	seen := map[graph.NodeID]bool{o.src: true}
	for queue := []graph.NodeID{o.src}; len(queue) > 0; queue = queue[1:] {
		for _, n := range adj[queue[0]] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return seen
}

func (o hierOracle) stats() []core.Stats {
	out := make([]core.Stats, o.s.NumDomains())
	for i := range out {
		sess, _, _ := o.s.DomainSession(i)
		out[i] = sess.Stats()
	}
	return out
}

// check runs after the event `what`, which was attributed to the domains in
// touched; before holds every domain's work counters from just before it.
func (o hierOracle) check(what string, before []core.Stats, touched map[int]bool) {
	o.t.Helper()
	if err := o.s.Validate(); err != nil {
		o.t.Fatalf("%s: %v", what, err)
	}
	for i, after := range o.stats() {
		// Confinement: a domain the event was not attributed to did no work.
		if !touched[i] && after != before[i] {
			o.t.Errorf("%s: untouched domain %d worked: %+v → %+v", what, i, before[i], after)
		}
		// A live domain's tree routes over no failed component. (A down
		// domain's tree is suspended as it stood; revival reconciles it.)
		sess, _, _ := o.s.DomainSession(i)
		mask := sess.FailedMask()
		if mask.NodeBlocked(sess.Tree().Source()) {
			continue
		}
		for _, e := range sess.Tree().Edges() {
			if mask.EdgeBlocked(e.A, e.B) || mask.NodeBlocked(e.A) || mask.NodeBlocked(e.B) {
				o.t.Errorf("%s: domain %d tree routes over failed %v", what, i, e)
			}
		}
	}
	// Every member is delivered XOR parked, and the session's answer is the
	// truth: delivered means the stream reaches it.
	parked, reached := o.s.Parked(), o.reached()
	for _, m := range o.s.Members() {
		d, err := o.s.EndToEndDelay(m)
		switch isParked := slices.Contains(parked, m); {
		case (err == nil) == isParked:
			o.t.Errorf("%s: member %d: delivered (%v) and parked (%v) must differ", what, m, err, isParked)
		case (err == nil) != reached[m]:
			o.t.Errorf("%s: member %d: EndToEndDelay = %v, but the stream reaches it: %v", what, m, err, reached[m])
		case err == nil && !(d > 0 && !math.IsInf(d, 1)):
			o.t.Errorf("%s: member %d delivered with delay %v", what, m, d)
		case err != nil && !errors.Is(err, core.ErrPartitioned):
			o.t.Errorf("%s: member %d: %v, want ErrPartitioned", what, m, err)
		}
	}
	for _, m := range parked {
		if !slices.Contains(o.s.Members(), m) {
			o.t.Errorf("%s: parked %d is not a member", what, m)
		}
	}
}

// TestChaosOracle replays seeded multi-failure schedules — overlapping link
// cuts, node crashes (gateways included), SRLG batches, partial repairs,
// receivers joining and leaving while degraded — against the hierarchical
// session on a transit–stub topology and on a generated
// 3-level one, checking the invariants after every event. The final event
// repairs everything, after which every member must be delivered again.
func TestChaosOracle(t *testing.T) {
	twoLevel := func(seed uint64) (*topology.NLevelTopology, error) {
		return topology.GenerateTransitStub(topology.DefaultTransitStubConfig(), topology.NewRNG(seed))
	}
	threeLevel := func(seed uint64) (*topology.NLevelTopology, error) {
		return topology.GenerateNLevel(topology.DefaultNLevelConfig(), topology.NewRNG(seed))
	}
	cfg := failure.ChaosConfig{Events: 6, MaxPerEvent: 3, PNode: 0.35, PSRLG: 0.3, PPartition: 0.5, Start: 1, Spacing: 1}
	for _, tc := range []struct {
		name  string
		build func(seed uint64) (*topology.NLevelTopology, error)
	}{{"transit-stub", twoLevel}, {"3-level", threeLevel}} {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				nt, err := tc.build(seed)
				if err != nil {
					t.Fatal(err)
				}
				// Source in the last domain; two receivers per domain (the root
				// included), a third kept back to join while degraded.
				last := nt.Domains[len(nt.Domains)-1]
				src := last.Nodes[len(last.Nodes)-1]
				s, err := NewNLevel(nt, src, core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				var members, late, gateways []graph.NodeID
				for _, d := range nt.Domains {
					picked := 0
					for _, n := range d.Nodes {
						if n == src || n == d.Gateway {
							continue
						}
						if picked++; picked <= 2 {
							members = append(members, n)
						} else {
							late = append(late, n)
							break
						}
					}
					if d.Parent != -1 {
						gateways = append(gateways, d.Gateway)
					}
				}
				for _, m := range members {
					if err := s.Join(m); err != nil {
						t.Fatal(err)
					}
				}
				o := hierOracle{t, s, src}
				o.check("admission", o.stats(), map[int]bool{})

				rng := topology.NewRNG(seed * 7919)
				sched, err := failure.RandomSchedule(nt.Graph, src, members, cfg, rng)
				if err != nil {
					t.Fatal(err)
				}
				// Random node crashes rarely hit one of the few agents and never
				// the source: make the second event an agent crash, have every third event also
				// repair what the event two before it broke, and end by repairing
				// everything.
				sched.Events[1].Failures = []failure.Failure{failure.NodeDown(gateways[rng.Intn(len(gateways))])}
				if seed%3 == 0 { // and now and then the true source itself
					sched.Events[3].Failures = append(sched.Events[3].Failures, failure.NodeDown(src))
				}
				var everything []failure.Failure
				for i := range sched.Events {
					if i >= 2 && i%3 == 2 {
						sched.Events[i].Repairs = sched.Events[i-2].Failures
					}
					everything = append(everything, sched.Events[i].Failures...)
				}
				sched.Events = append(sched.Events, failure.Event{Repairs: everything})
				for i, ev := range sched.Events {
					what := fmt.Sprintf("event %d %v", i, ev)
					if len(ev.Failures) > 0 {
						before := o.stats()
						if _, err := s.RecoverSet(ev.Failures); err != nil {
							t.Fatalf("%s: RecoverSet: %v", what, err)
						}
						o.check(what+" (fail)", before, touchedDomains(nt, ev.Failures))
					}
					if len(ev.Repairs) > 0 {
						before := o.stats()
						if _, err := s.Repair(ev.Repairs...); err != nil {
							t.Fatalf("%s: Repair: %v", what, err)
						}
						o.check(what+" (repair)", before, touchedDomains(nt, ev.Repairs))
					}
					if i == 1 {
						// Churn under damage. A late joiner is admitted, admitted
						// parked, or refused outright (its own node or its
						// never-hooked agent is down) — the oracle takes whichever.
						all := map[int]bool{}
						for d := range nt.Domains {
							all[d] = true
						}
						before := o.stats()
						for _, n := range late {
							err := s.Join(n)
							if admitted := err == nil || errors.Is(err, core.ErrPartitioned); admitted != slices.Contains(s.Members(), n) {
								t.Errorf("%s: Join(%d) = %v, but member = %v", what, n, err, !admitted)
							}
						}
						if err := s.Leave(members[0]); err != nil {
							t.Errorf("%s: Leave(%d) = %v", what, members[0], err)
						}
						o.check(what+" (churn)", before, all)
					}
				}
				if parked := s.Parked(); len(parked) != 0 {
					t.Errorf("after full repair still parked: %v", parked)
				}
			})
		}
	}
}
