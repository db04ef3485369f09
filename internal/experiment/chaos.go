package experiment

import (
	"context"
	"fmt"
	"strings"

	"smrp/internal/core"
	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/protocol"
	"smrp/internal/runner"
)

// ChaosResult aggregates the multi-failure chaos harness: seeded random
// failure schedules (overlapping link/node failures, SRLG bursts, full
// partitions, repairs) played against both the algorithmic session and the
// message-level protocol, with a structural-invariant oracle checked after
// every event. A healthy implementation reports zero violations.
type ChaosResult struct {
	Trials   int
	Events   int
	Failures int
	Repairs  int

	// Core-session accounting across all trials.
	Disconnections int // members cut off by some failure event
	Recovered      int // members re-grafted by a local detour
	Parks          int // members degraded to the parked state
	Readmissions   int // parked members automatically re-admitted

	// Protocol-level accounting.
	Restorations  int // message-level recoveries completed
	ParkedAtEnd   int // protocol members still parked at the horizon
	FullyRestored int // trials whose members were all back after full repair

	// Violations lists invariant-oracle failures (empty on a healthy run).
	Violations []string
}

// Err is nil on a clean run, else an error counting the invariant violations.
func (r *ChaosResult) Err() error { return violationsErr("chaos", "invariant", r.Violations) }

// Render prints the chaos summary.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos harness (%d seeded multi-failure schedules)\n", r.Trials)
	fmt.Fprintf(&b, "  schedule: events=%d failures=%d repairs=%d\n", r.Events, r.Failures, r.Repairs)
	fmt.Fprintf(&b, "  core:     disconnected=%d recovered=%d parked=%d readmitted=%d\n",
		r.Disconnections, r.Recovered, r.Parks, r.Readmissions)
	fmt.Fprintf(&b, "  protocol: restorations=%d parked-at-horizon=%d fully-restored-trials=%d\n",
		r.Restorations, r.ParkedAtEnd, r.FullyRestored)
	renderViolations(&b, "invariant", r.Violations)
	return b.String()
}

// chaosTrial is one schedule's outcome.
type chaosTrial struct {
	events, failures, repairs int
	scheduleTally
	restorations, parkedEnd int
	fullyRestored           bool
}

// scheduleTally is what playSchedule counts on one session.
type scheduleTally struct {
	disconnected, recovered, parks, readmitted int
	// disruption counts parked member-events: after each event, every
	// member parked then counts one.
	disruption int
	// rd holds every recovery distance in event order, each event's
	// ascending by member, so the sample (and its float summation) is
	// deterministic.
	rd         []float64
	violations []string
}

// schedulePlay is one session's run through a schedule and what it counted.
// study prefixes its errors; where prefixes its oracle's event labels.
type schedulePlay struct {
	sess         *core.Session
	study, where string
	scheduleTally
}

// playSchedule is the event loop of chaos phase 1 and of the strategies
// testbed. It admits members to every session through JoinBatch — the
// initial membership is a flash crowd by construction, every member of one
// group arriving at once, and the batched path (bit-identical to sequential
// joins) stays under the oracle on every schedule — then plays sched event
// by event, each event on every session in turn: Recover for its failures,
// Repair for its repairs, and the invariant oracle after each. Sessions on
// one topology share its SPF cache, which keeps the source's healthy tree
// alone: the first session's miss is the others' hit in any order, and the
// lockstep saves no miss.
func playSchedule(plays []*schedulePlay, members []graph.NodeID, sched failure.Schedule) error {
	for _, p := range plays {
		_, joinErrs := p.sess.JoinBatch(members)
		for i, err := range joinErrs {
			if err != nil {
				return fmt.Errorf("%s: join %d: %w", p.study, members[i], err)
			}
		}
	}
	for k, ev := range sched.Events {
		for _, p := range plays {
			if err := p.play(k, ev, members); err != nil {
				return err
			}
		}
	}
	return nil
}

// play applies event k to the session and tallies it.
func (p *schedulePlay) play(k int, ev failure.Event, members []graph.NodeID) error {
	if len(ev.Failures) > 0 {
		rep, err := p.sess.Recover(ev.Failures...)
		if err != nil {
			return fmt.Errorf("%s: recover event %d: %w", p.study, k, err)
		}
		p.disconnected += len(rep.Disconnected)
		p.recovered += len(rep.Recovered)
		p.parks += len(rep.Unrecovered)
		p.readmitted += len(rep.Readmitted)
		for _, r := range rep.Recovered {
			p.rd = append(p.rd, r.RD)
		}
	}
	if len(ev.Repairs) > 0 {
		rep, err := p.sess.Repair(ev.Repairs...)
		if err != nil {
			return fmt.Errorf("%s: repair event %d: %w", p.study, k, err)
		}
		p.readmitted += len(rep.Readmitted)
	}
	p.disruption += len(p.sess.Parked())
	p.violations = append(p.violations,
		chaosInvariants(p.sess, members, fmt.Sprintf("%s event %d", p.where, k))...)
	return nil
}

// chaosInvariants is the oracle: after every event the tree must be
// structurally valid (no loops, no orphans, every branch rooted at the
// source), must not route over any failed component, every original member
// must be accounted for — either on the tree or parked, never both, never
// neither — and the partition of members into on-tree vs parked must agree
// with residual reachability from the source (see the audit below).
func chaosInvariants(s *core.Session, members []graph.NodeID, when string) []string {
	var v []string
	tr := s.Tree()
	if err := tr.Validate(); err != nil {
		v = append(v, fmt.Sprintf("%s: tree invalid: %v", when, err))
	}
	mask := s.FailedMask()
	for _, n := range tr.Nodes() {
		if mask.NodeBlocked(n) {
			v = append(v, fmt.Sprintf("%s: failed node %d still on tree", when, n))
		}
		if p, ok := tr.Parent(n); ok && p != graph.Invalid && mask.EdgeBlocked(p, n) {
			v = append(v, fmt.Sprintf("%s: failed link %d-%d still on tree", when, p, n))
		}
	}
	parked := make(map[graph.NodeID]bool)
	for _, m := range s.Parked() {
		parked[m] = true
	}
	for _, m := range members {
		switch {
		case tr.IsMember(m) && parked[m]:
			v = append(v, fmt.Sprintf("%s: member %d both on-tree and parked", when, m))
		case !tr.IsMember(m) && !parked[m]:
			v = append(v, fmt.Sprintf("%s: member %d lost (neither on-tree nor parked)", when, m))
		}
	}
	// Residual-reachability audit: one source-rooted shortest-path tree over
	// the surviving network decides both directions of the member partition.
	// A parked member that can reach the source was wrongly parked — the
	// reconcile pass readmits any parked member with a path to a surviving
	// on-tree node, and the source is one. Conversely an on-tree member must
	// be reachable, because the (already validated) tree carries a live path
	// between them. The tree is a full run under the mask, never cached.
	if !mask.NodeBlocked(tr.Source()) {
		spt := tr.Graph().Dijkstra(tr.Source(), mask)
		for _, m := range s.Parked() {
			if spt.Reachable(m) {
				v = append(v, fmt.Sprintf("%s: parked member %d has a residual path to the source", when, m))
			}
		}
		for _, m := range tr.Members() {
			if !spt.Reachable(m) {
				v = append(v, fmt.Sprintf("%s: on-tree member %d unreachable from source in residual network", when, m))
			}
		}
	}
	return v
}

// RunChaos executes trials seeded multi-failure schedules. Each trial
// draws a random topology and schedule, plays the schedule against a core
// session event by event (checking the invariant oracle after every event),
// then replays it at the message level through the protocol instance —
// failures land mid-recovery, Join_Reqs get lost on dying links, retries
// back off, partitioned members park and are re-admitted on repair. Trials
// run on the parallel runner and fold in trial order, so the result is
// bit-identical for any worker count. A cancelled ctx stops dispatch and
// returns ctx.Err().
func RunChaos(ctx context.Context, rc RunConfig, trials int) (*ChaosResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiment: chaos: trials = %d must be >= 1", trials)
	}
	base := DefaultBase()
	base.N = 60
	base.NG = 12
	pcfg := protocol.DefaultConfig()
	pcfg.SMRP = base.SMRP

	results, err := runner.Map(ctx, rc.pool(), trials, func(_ context.Context, t runner.Trial) (chaosTrial, error) {
		rng := t.RNG
		g, source, members, err := FlatTrial(base, rng)
		if err != nil {
			return chaosTrial{}, err
		}

		ccfg := failure.DefaultChaosConfig()
		sched, err := failure.RandomSchedule(g, source, members, ccfg, rng)
		if err != nil {
			return chaosTrial{}, err
		}

		out := chaosTrial{
			events:   len(sched.Events),
			failures: sched.NumFailures(),
			repairs:  sched.NumRepairs(),
		}

		// Phase 1: algorithmic session, event by event, oracle after each.
		sess, err := core.NewSession(g, source, base.SMRP)
		if err != nil {
			return chaosTrial{}, err
		}
		play := &schedulePlay{sess: sess, study: "chaos", where: fmt.Sprintf("seed %d", t.Seed)}
		if err := playSchedule([]*schedulePlay{play}, members, sched); err != nil {
			return chaosTrial{}, err
		}
		out.scheduleTally = play.scheduleTally

		// Phase 2: message level. The same schedule plays out in virtual
		// time: later failures land while earlier recoveries are in flight.
		inst, err := protocol.NewSMRPInstance(g, source, pcfg)
		if err != nil {
			return chaosTrial{}, err
		}
		for k, m := range members {
			if err := inst.ScheduleJoin(eventsim.Time(k+1), m); err != nil {
				return chaosTrial{}, err
			}
		}
		if err := inst.InjectSchedule(sched); err != nil {
			return chaosTrial{}, err
		}
		if err := inst.Run(5000); err != nil {
			return chaosTrial{}, err
		}
		out.violations = append(out.violations,
			chaosInvariants(inst.Session(), members, fmt.Sprintf("seed %d protocol at horizon", t.Seed))...)
		out.restorations = len(inst.Restorations())
		out.parkedEnd = len(inst.Parked())

		// After the full repair the core mask is empty: every member must be
		// back on the tree.
		if sched.CumulativeMask().IsEmpty() {
			back := true
			for _, m := range members {
				if !sess.Tree().IsMember(m) {
					back = false
					out.violations = append(out.violations,
						fmt.Sprintf("seed %d: member %d not re-admitted after full repair", t.Seed, m))
				}
			}
			out.fullyRestored = back
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ChaosResult{Trials: trials}
	for _, tr := range results {
		res.Events += tr.events
		res.Failures += tr.failures
		res.Repairs += tr.repairs
		res.Disconnections += tr.disconnected
		res.Recovered += tr.recovered
		res.Parks += tr.parks
		res.Readmissions += tr.readmitted
		res.Restorations += tr.restorations
		res.ParkedAtEnd += tr.parkedEnd
		if tr.fullyRestored {
			res.FullyRestored++
		}
		res.Violations = append(res.Violations, tr.violations...)
	}
	return res, nil
}
