package experiment

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"smrp/internal/core"
	"smrp/internal/detour"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/metrics"
	"smrp/internal/mrc"
	"smrp/internal/runner"
)

// StrategyArm is one recovery strategy's aggregate outcome across every
// schedule of the strategies study.
type StrategyArm struct {
	Name string

	// RD summarizes the per-member recovery distance (RD_R) over every
	// reconnection the strategy performed.
	RD metrics.Summary

	Recovered  int // members re-grafted after a failure event
	Parks      int // members degraded to the parked state
	Readmitted int // parked members automatically re-admitted

	// Disruption is the study's virtual-time-free disruption measure: the
	// number of member-events spent parked (after each schedule event, every
	// currently parked member counts one). Faster, more complete restoration
	// ⇒ fewer parked member-events.
	Disruption int

	// PrecomputeSettled and RecoverySettled split the settled-node work (the
	// repository's CI-stable unit of SPF effort) into the share paid before
	// failures (building backup configurations / detour tables) and the
	// share paid at recovery time (live searches). The baselines trade the
	// former for the latter; SMRP is all recovery-time by design.
	PrecomputeSettled int
	RecoverySettled   int

	// Fallbacks counts recoveries where the strategy's precomputed answer
	// was missing or invalidated and the scaffold's live search stood in
	// (always 0 for SMRP, which has no table to miss). FallbackSettled is the
	// share of RecoverySettled those searches cost, the ones that found
	// nothing included: what the strategy's table did not displace.
	Fallbacks       int
	FallbackSettled int

	// StateBytes is the mean precomputed-state footprint per trial at the
	// schedule horizon, deterministic per-element accounting.
	StateBytes int64
}

// StrategiesResult aggregates the comparative restoration testbed: the same
// seeded chaos schedules played three-way — SMRP local detours vs MRC backup
// configurations vs Bhosle–Gonzalez precomputed detours — through the
// core.RecoveryStrategy seam, with the chaos invariant oracle checked after
// every event for every arm.
type StrategiesResult struct {
	Trials   int
	Events   int
	Failures int
	Repairs  int

	Arms []StrategyArm

	// Violations lists invariant-oracle failures across all arms (empty on a
	// healthy run).
	Violations []string
}

// Err is nil on a clean run, else an error counting the invariant violations.
func (r *StrategiesResult) Err() error { return violationsErr("strategies", "invariant", r.Violations) }

// Render prints the three-way comparison.
func (r *StrategiesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery-strategy testbed (%d seeded chaos schedules, three-way)\n", r.Trials)
	fmt.Fprintf(&b, "  schedule: events=%d failures=%d repairs=%d\n", r.Events, r.Failures, r.Repairs)
	fmt.Fprintf(&b, "  %-8s %9s %16s %7s %8s %9s %9s %14s %12s\n",
		"strategy", "recovered", "RD_R mean±ci95", "parked", "readmit", "disrupt", "fallback", "settled pre/rec", "state-bytes")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "  %-8s %9d %7.4f±%7.4f %7d %8d %9d %9d %7d/%6d %12d\n",
			a.Name, a.Recovered, a.RD.Mean, a.RD.CI95,
			a.Parks, a.Readmitted, a.Disruption, a.Fallbacks,
			a.PrecomputeSettled, a.RecoverySettled, a.StateBytes)
	}
	renderViolations(&b, "invariant", r.Violations)
	return b.String()
}

// strategyArms defines the study's three arms. Factories return a fresh
// strategy per session — instances are session-bound and must not be shared.
// The smrp arm has none: a session with no strategy runs the paper's
// local-detour recovery.
var strategyArms = []struct {
	name string
	make func() core.RecoveryStrategy
}{
	{"smrp", nil},
	{"mrc", func() core.RecoveryStrategy { return mrc.New(0) }},
	{"detour", func() core.RecoveryStrategy { return detour.New() }},
}

// stratArmTrial is one arm's outcome on one schedule.
type stratArmTrial struct {
	rd                           []float64
	recovered, parks, readmitted int
	disruption                   int
	precompSettled, recovSettled int
	fallbacks, fallbackSettled   int
	stateBytes                   int64
	violations                   []string
}

// stratTrial is one schedule's outcome across all arms.
type stratTrial struct {
	events, failures, repairs int
	arms                      []stratArmTrial
}

// preSettler is the optional accessor the baselines expose for their
// precompute-time settled-node work (SMRP precomputes nothing and does not
// implement it).
type preSettler interface{ PrecomputeSettled() int }

// RunStrategies executes trials seeded chaos schedules three-way. Each
// trial draws one random topology and failure schedule (the same generation
// as the chaos harness: 60-node Waxman, 12 members, overlapping link/node
// failures, SRLG bursts, partitions, repairs) and plays it against three
// core sessions — one per recovery strategy — sharing the topology and its
// SPF cache. The invariant oracle runs after every event for every arm, so
// a baseline that parks a reachable member or routes over a failed
// component fails loudly. Trials run on the parallel runner and fold in
// trial order: the result is bit-identical for any worker count.
func RunStrategies(ctx context.Context, rc RunConfig, trials int) (*StrategiesResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiment: strategies: trials = %d must be >= 1", trials)
	}
	base := DefaultBase()
	base.N = 60
	base.NG = 12

	results, err := runner.Map(ctx, rc.pool(), trials, func(_ context.Context, t runner.Trial) (stratTrial, error) {
		rng := t.RNG
		g, source, members, err := FlatTrial(base, rng)
		if err != nil {
			return stratTrial{}, err
		}

		ccfg := failure.DefaultChaosConfig()
		sched, err := failure.RandomSchedule(g, source, members, ccfg, rng)
		if err != nil {
			return stratTrial{}, err
		}

		out := stratTrial{
			events:   len(sched.Events),
			failures: sched.NumFailures(),
			repairs:  sched.NumRepairs(),
			arms:     make([]stratArmTrial, len(strategyArms)),
		}
		for ai, armDef := range strategyArms {
			arm := &out.arms[ai]
			var strat core.RecoveryStrategy
			if armDef.make != nil {
				strat = armDef.make()
			}
			cfg := base.SMRP
			cfg.Strategy = strat
			sess, err := core.NewSession(g, source, cfg)
			if err != nil {
				return stratTrial{}, fmt.Errorf("strategies %s: new session: %w", armDef.name, err)
			}
			_, joinErrs := sess.JoinBatch(members)
			for i, err := range joinErrs {
				if err != nil {
					return stratTrial{}, fmt.Errorf("strategies %s: join %d: %w", armDef.name, members[i], err)
				}
			}
			for k, ev := range sched.Events {
				if len(ev.Failures) > 0 {
					rep, err := sess.Recover(ev.Failures...)
					if err != nil {
						return stratTrial{}, fmt.Errorf("strategies %s: recover event %d: %w", armDef.name, k, err)
					}
					arm.recovered += len(rep.RecoveryDistance)
					arm.parks += len(rep.Unrecovered)
					arm.readmitted += len(rep.Readmitted)
					// Map iteration is unordered; fold RD ascending by member
					// so the sample (and its float summation) is deterministic.
					ids := make([]graph.NodeID, 0, len(rep.RecoveryDistance))
					for m := range rep.RecoveryDistance {
						ids = append(ids, m)
					}
					slices.Sort(ids)
					for _, m := range ids {
						arm.rd = append(arm.rd, rep.RecoveryDistance[m])
					}
				}
				if len(ev.Repairs) > 0 {
					rep, err := sess.Repair(ev.Repairs...)
					if err != nil {
						return stratTrial{}, fmt.Errorf("strategies %s: repair event %d: %w", armDef.name, k, err)
					}
					arm.readmitted += len(rep.Readmitted)
				}
				arm.disruption += len(sess.Parked())
				arm.violations = append(arm.violations,
					chaosInvariants(sess, members, fmt.Sprintf("seed %d %s event %d", t.Seed, armDef.name, k))...)
			}
			stats := sess.Stats()
			arm.recovSettled = stats.HealSettled
			arm.fallbacks, arm.fallbackSettled = stats.StrategyFallbacks, stats.FallbackSettled
			if strat != nil {
				arm.stateBytes = strat.StateBytes()
			}
			if ps, ok := strat.(preSettler); ok {
				arm.precompSettled = ps.PrecomputeSettled()
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &StrategiesResult{Trials: trials}
	samples := make([]metrics.Sample, len(strategyArms))
	arms := make([]StrategyArm, len(strategyArms))
	for ai, armDef := range strategyArms {
		arms[ai].Name = armDef.name
	}
	for _, tr := range results {
		res.Events += tr.events
		res.Failures += tr.failures
		res.Repairs += tr.repairs
		for ai := range strategyArms {
			at := tr.arms[ai]
			arms[ai].Recovered += at.recovered
			arms[ai].Parks += at.parks
			arms[ai].Readmitted += at.readmitted
			arms[ai].Disruption += at.disruption
			arms[ai].PrecomputeSettled += at.precompSettled
			arms[ai].RecoverySettled += at.recovSettled
			arms[ai].Fallbacks += at.fallbacks
			arms[ai].FallbackSettled += at.fallbackSettled
			arms[ai].StateBytes += at.stateBytes
			samples[ai].AddAll(at.rd...)
			res.Violations = append(res.Violations, at.violations...)
		}
	}
	for ai := range arms {
		if samples[ai].N() > 0 {
			s, err := samples[ai].Summarize()
			if err != nil {
				return nil, err
			}
			arms[ai].RD = s
		}
		if trials > 0 {
			arms[ai].StateBytes /= int64(trials)
		}
	}
	res.Arms = arms
	return res, nil
}
