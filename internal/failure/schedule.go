package failure

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// This file models *multi-failure* regimes: sets of correlated failures
// (SRLG-style shared-risk cuts), failure schedules whose events arrive over
// time (including while a previous recovery is still in progress), and the
// repair events that eventually restore components. The single-failure
// primitives in failure.go stay untouched; a Schedule composes them.

// Errors returned by schedule validation and application.
var (
	// ErrBadSchedule is returned when a schedule is structurally invalid
	// (unsorted events, an event with neither failures nor repairs, …).
	ErrBadSchedule = errors.New("failure: invalid schedule")
	// ErrMemberFailed is returned when recovery is requested for a member
	// that failed itself (node failure) — it is gone, not disconnected.
	ErrMemberFailed = errors.New("failure: member itself failed")
)

// ApplyTo folds the failure into an accumulated mask. Applying the same
// failure twice is idempotent (Mask.Block* is).
func (f Failure) ApplyTo(m *graph.Mask) {
	switch f.Kind {
	case LinkFailure:
		m.BlockEdge(f.Edge.A, f.Edge.B)
	case NodeFailure:
		m.BlockNode(f.Node)
	}
}

// RemoveFrom lifts the failure from an accumulated mask (a repair). Links
// that were blocked independently of a repaired node stay blocked.
func (f Failure) RemoveFrom(m *graph.Mask) {
	switch f.Kind {
	case LinkFailure:
		m.UnblockEdge(f.Edge.A, f.Edge.B)
	case NodeFailure:
		m.UnblockNode(f.Node)
	}
}

// SRLG returns the correlated failure group of every link incident to n —
// the canonical shared-risk-link-group: one conduit cut takes out all fibers
// routed through it. The node itself stays up (unlike NodeDown).
func SRLG(g *graph.Graph, n graph.NodeID) []Failure {
	arcs := g.Neighbors(n)
	out := make([]Failure, 0, len(arcs))
	for _, a := range arcs {
		out = append(out, LinkDown(n, a.To))
	}
	return out
}

// Event is one instant of a failure schedule: a batch of correlated
// failures (applied atomically, SRLG-style) and/or repairs.
type Event struct {
	// At is the virtual time of the event (edge-weight units, matching
	// eventsim.Time).
	At float64
	// Failures are the components that fail at this instant.
	Failures []Failure
	// Repairs are the components restored at this instant.
	Repairs []Failure
}

// Schedule is a time-ordered sequence of failure/repair events — the input
// of the multi-failure chaos harness and of SMRPInstance.InjectSchedule.
type Schedule struct {
	Events []Event
}

// Validate reports whether the schedule is well-formed: events sorted by
// time, none at NaN, each with at least one failure or repair.
func (s Schedule) Validate() error {
	for i, ev := range s.Events {
		if len(ev.Failures) == 0 && len(ev.Repairs) == 0 {
			return fmt.Errorf("%w: event %d is empty", ErrBadSchedule, i)
		}
		if math.IsNaN(ev.At) {
			return fmt.Errorf("%w: event %d at t=NaN", ErrBadSchedule, i)
		}
		if i > 0 && ev.At < s.Events[i-1].At {
			return fmt.Errorf("%w: event %d at t=%v precedes event %d at t=%v",
				ErrBadSchedule, i, ev.At, i-1, s.Events[i-1].At)
		}
	}
	return nil
}

// NumFailures counts the individual component failures across all events.
func (s Schedule) NumFailures() int {
	n := 0
	for _, ev := range s.Events {
		n += len(ev.Failures)
	}
	return n
}

// NumRepairs counts the individual component repairs across all events.
func (s Schedule) NumRepairs() int {
	n := 0
	for _, ev := range s.Events {
		n += len(ev.Repairs)
	}
	return n
}

// MaskAt returns the accumulated failure mask in effect at time t (events
// with At <= t applied, failures first within an event, then repairs).
func (s Schedule) MaskAt(t float64) *graph.Mask {
	m := graph.NewMask()
	for _, ev := range s.Events {
		if ev.At > t {
			break
		}
		for _, f := range ev.Failures {
			f.ApplyTo(m)
		}
		for _, r := range ev.Repairs {
			r.RemoveFrom(m)
		}
	}
	return m
}

// CumulativeMask returns the mask after the whole schedule has played out.
func (s Schedule) CumulativeMask() *graph.Mask {
	if len(s.Events) == 0 {
		return graph.NewMask()
	}
	return s.MaskAt(s.Events[len(s.Events)-1].At)
}

// String renders the schedule compactly for traces and test failures.
func (s Schedule) String() string {
	var b strings.Builder
	b.WriteString("schedule[")
	for i, ev := range s.Events {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "t=%.3g", ev.At)
		for _, f := range ev.Failures {
			fmt.Fprintf(&b, " %v", f)
		}
		for _, r := range ev.Repairs {
			fmt.Fprintf(&b, " repair(%v)", r)
		}
	}
	b.WriteString("]")
	return b.String()
}

// ChaosConfig parameterizes RandomSchedule.
type ChaosConfig struct {
	// Events is the number of failure events drawn (>= 1).
	Events int
	// MaxPerEvent caps the number of simultaneous link cuts in one SRLG
	// burst event (>= 1).
	MaxPerEvent int
	// PNode is the probability an event is a single node crash.
	PNode float64
	// PSRLG is the probability an event is a correlated burst: every link
	// incident to one node cut at once (the node survives). The remaining
	// probability mass draws 1..MaxPerEvent independent random link cuts.
	PSRLG float64
	// PPartition is the probability that the *last* failure event isolates a
	// chosen victim node entirely (all incident links cut) — a guaranteed
	// full partition exercising the parked-member path.
	PPartition float64
	// Start/Spacing position the events in virtual time: event i fires at
	// Start + i*Spacing. A Spacing smaller than the recovery latency makes
	// later failures land mid-recovery.
	Start, Spacing float64
	// Repair appends one final event (one Spacing after the last failure)
	// repairing every component the schedule failed, so parked members can
	// be re-admitted.
	Repair bool
}

// DefaultChaosConfig returns the chaos harness defaults: three failure
// events (bursty, occasionally partitioning), arriving close enough
// together to overlap recoveries, followed by a full repair.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Events:      3,
		MaxPerEvent: 3,
		PNode:       0.25,
		PSRLG:       0.25,
		PPartition:  0.5,
		Start:       300,
		Spacing:     2,
		Repair:      true,
	}
}

// Validate reports whether the configuration is usable.
func (c ChaosConfig) Validate() error {
	if c.Events < 1 {
		return fmt.Errorf("%w: Events = %d", ErrBadSchedule, c.Events)
	}
	if c.MaxPerEvent < 1 {
		return fmt.Errorf("%w: MaxPerEvent = %d", ErrBadSchedule, c.MaxPerEvent)
	}
	for _, p := range []float64{c.PNode, c.PSRLG, c.PPartition} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("%w: probability %v out of [0, 1]", ErrBadSchedule, p)
		}
	}
	if !(c.Spacing > 0) || math.IsNaN(c.Start) {
		return fmt.Errorf("%w: Start = %v, Spacing = %v", ErrBadSchedule, c.Start, c.Spacing)
	}
	return nil
}

// RandomSchedule draws a seeded multi-failure schedule against g. The source
// node never fails and is never fully isolated by a generated SRLG burst
// (schedules are about surviving member-side damage; a dead source is a
// different, trivially-detected regime covered by ErrSourceFailed). victims
// optionally biases the partition event toward interesting nodes (members);
// when empty, any non-source node may be isolated. The draw consumes rng
// deterministically: equal seeds yield equal schedules.
func RandomSchedule(g *graph.Graph, source graph.NodeID, victims []graph.NodeID, cfg ChaosConfig, rng *topology.RNG) (Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return Schedule{}, err
	}
	n := g.NumNodes()
	if n < 3 {
		return Schedule{}, fmt.Errorf("%w: graph too small (%d nodes)", ErrBadSchedule, n)
	}
	edges := g.Edges() // sorted canonical order: deterministic
	var sched Schedule
	pick := func() graph.NodeID { // any node but the source
		for {
			v := graph.NodeID(rng.Intn(n))
			if v != source {
				return v
			}
		}
	}
	for i := 0; i < cfg.Events; i++ {
		at := cfg.Start + float64(i)*cfg.Spacing
		ev := Event{At: at}
		switch r := rng.Float64(); {
		case i == cfg.Events-1 && rng.Float64() < cfg.PPartition:
			// Full partition of a victim: cut every incident link.
			v := pick()
			if len(victims) > 0 {
				v = victims[rng.Intn(len(victims))]
			}
			ev.Failures = SRLG(g, v)
		case r < cfg.PNode:
			ev.Failures = []Failure{NodeDown(pick())}
		case r < cfg.PNode+cfg.PSRLG:
			// Correlated burst: all links of one node cut at once while the
			// node itself stays up (a conduit cut under a surviving router).
			ev.Failures = SRLG(g, pick())
		default:
			k := 1 + rng.Intn(cfg.MaxPerEvent)
			seen := make(map[graph.EdgeID]bool, k)
			for len(ev.Failures) < k {
				e := edges[rng.Intn(len(edges))]
				if seen[e] {
					continue
				}
				seen[e] = true
				ev.Failures = append(ev.Failures, Failure{Kind: LinkFailure, Edge: e})
			}
		}
		if len(ev.Failures) == 0 {
			ev.Failures = []Failure{NodeDown(pick())}
		}
		sched.Events = append(sched.Events, ev)
	}
	if cfg.Repair {
		last := sched.Events[len(sched.Events)-1]
		rep := Event{At: last.At + cfg.Spacing}
		seen := make(map[Failure]bool)
		for _, ev := range sched.Events {
			for _, f := range ev.Failures {
				if !seen[f] {
					seen[f] = true
					rep.Repairs = append(rep.Repairs, f)
				}
			}
		}
		sched.Events = append(sched.Events, rep)
	}
	if err := sched.Validate(); err != nil {
		return Schedule{}, err
	}
	return sched, nil
}
