package experiment

import (
	"context"
	"fmt"
	"strings"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/metrics"
	"smrp/internal/runner"
	"smrp/internal/spfbase"
	"smrp/internal/topology"
	"smrp/internal/workload"
)

// ChurnResult studies tree reshaping under membership churn (§3.2.3): after
// a long series of joins and departures, how do recovery distance, delay and
// cost compare against the SPF baseline with reshaping disabled, with
// Condition I only, and with Conditions I+II?
type ChurnResult struct {
	Runs   int
	Events metrics.Summary // churn events applied per run
	Rows   []ChurnRow
}

// ChurnRow is one reshaping configuration's post-churn quality.
type ChurnRow struct {
	Name     string
	RDRel    metrics.Summary
	DelayRel metrics.Summary
	CostRel  metrics.Summary
	Reshapes float64 // mean path switches per run
}

// Render prints the study.
func (r *ChurnResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reshaping under churn (%d runs, %.0f events/run avg)\n", r.Runs, r.Events.Mean)
	fmt.Fprintf(&b, "  %-18s %-20s %-20s %-20s %-8s\n", "variant", "RD_rel", "Delay_rel", "Cost_rel", "reshapes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %7.4f ± %-9.4f %7.4f ± %-9.4f %7.4f ± %-9.4f %-8.1f\n",
			row.Name,
			row.RDRel.Mean, row.RDRel.CI95,
			row.DelayRel.Mean, row.DelayRel.CI95,
			row.CostRel.Mean, row.CostRel.CI95,
			row.Reshapes)
	}
	return b.String()
}

// churnVariant names one reshaping configuration.
type churnVariant struct {
	name string
	cfg  core.Config
}

// churnVariants returns the three reshaping configurations under study.
func churnVariants() []churnVariant {
	off := core.DefaultConfig()
	off.ReshapeDelta = 0
	off.PeriodicReshape = false
	condI := core.DefaultConfig()
	condI.PeriodicReshape = false
	full := core.DefaultConfig()
	return []churnVariant{
		{name: "no-reshaping", cfg: off},
		{name: "condition-I", cfg: condI},
		{name: "condition-I+II", cfg: full},
	}
}

// churnRun is one trial's contribution: the per-variant aggregates and
// reshape counts for a single topology + churn schedule.
type churnRun struct {
	events   float64
	aggs     []*Aggregate
	reshapes []float64
}

// RunChurn drives the same churn schedule through an SPF session and three
// SMRP reshaping variants, then evaluates the surviving members under
// worst-case failures. Condition II (the periodic timer) fires every
// reshapeEvery events for the full variant. Runs are independent and execute
// on the parallel runner; per-run results fold in run order, so output is
// identical for any worker count.
func RunChurn(ctx context.Context, rc RunConfig, runs int) (*ChurnResult, error) {
	const reshapeEvery = 10
	base := DefaultBase()
	out := &ChurnResult{}
	variants := churnVariants()

	runResults, err := runner.Map(ctx, rc.pool(), runs, func(_ context.Context, t runner.Trial) (*churnRun, error) {
		r := t.Index
		rng := topology.NewRNG(rc.Seed + uint64(r)*6151)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: base.N, Alpha: base.Alpha, Beta: base.Beta, EnsureConnected: true,
		}, rng)
		if err != nil {
			return nil, err
		}
		source := graph.NodeID(0)
		pop := make([]graph.NodeID, 0, base.N-1)
		for n := 1; n < base.N; n++ {
			pop = append(pop, graph.NodeID(n))
		}
		sched, err := workload.Generate(workload.Config{
			Nodes:          pop,
			Horizon:        300,
			ArrivalRate:    0.3,
			MeanLifetime:   120,
			InitialMembers: base.NG,
		}, rng.Split())
		if err != nil {
			return nil, err
		}
		cr := &churnRun{
			events:   float64(len(sched.Events)),
			aggs:     make([]*Aggregate, len(variants)),
			reshapes: make([]float64, len(variants)),
		}

		// SPF baseline under the same schedule.
		spfSess, err := newSPFUnderChurn(g, source, sched)
		if err != nil {
			return nil, err
		}

		for vi, v := range variants {
			cr.aggs[vi] = &Aggregate{}
			sess, err := core.NewSession(g, source, v.cfg)
			if err != nil {
				return nil, err
			}
			applied := 0
			for _, e := range sched.Events {
				switch e.Kind {
				case workload.Join:
					if _, err := sess.Join(e.Node); err != nil {
						return nil, fmt.Errorf("churn join %d: %w", e.Node, err)
					}
				case workload.Leave:
					if err := sess.Leave(e.Node); err != nil {
						return nil, fmt.Errorf("churn leave %d: %w", e.Node, err)
					}
				}
				applied++
				if v.cfg.PeriodicReshape && applied%reshapeEvery == 0 {
					sess.ReshapeAll()
				}
			}
			cr.reshapes[vi] = float64(sess.Stats().Reshapes)
			if err := accumulateChurn(cr.aggs[vi], sess, spfSess); err != nil {
				return nil, err
			}
		}
		return cr, nil
	})
	if err != nil {
		return nil, err
	}

	aggs := make([]*Aggregate, len(variants))
	reshapes := make([]float64, len(variants))
	for i := range aggs {
		aggs[i] = &Aggregate{}
	}
	var eventsSample metrics.Sample
	for _, cr := range runResults {
		eventsSample.Add(cr.events)
		for vi := range variants {
			aggs[vi].Merge(cr.aggs[vi])
			reshapes[vi] += cr.reshapes[vi]
		}
		out.Runs++
	}

	if out.Events, err = eventsSample.Summarize(); err != nil {
		return nil, err
	}
	for vi, v := range variants {
		rd, err := aggs[vi].RDRel.Summarize()
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", v.name, err)
		}
		dl, err := aggs[vi].DelayRel.Summarize()
		if err != nil {
			return nil, err
		}
		ct, err := aggs[vi].CostRel.Summarize()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ChurnRow{
			Name:     v.name,
			RDRel:    rd,
			DelayRel: dl,
			CostRel:  ct,
			Reshapes: reshapes[vi] / float64(out.Runs),
		})
	}
	return out, nil
}

// newSPFUnderChurn replays the schedule on the SPF baseline.
func newSPFUnderChurn(g *graph.Graph, source graph.NodeID, sched *workload.Schedule) (*spfbase.Session, error) {
	s, err := spfbase.NewSession(g, source)
	if err != nil {
		return nil, err
	}
	for _, e := range sched.Events {
		switch e.Kind {
		case workload.Join:
			if err := s.Join(e.Node); err != nil {
				return nil, err
			}
		case workload.Leave:
			if err := s.Leave(e.Node); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// accumulateChurn measures the post-churn trees member by member.
func accumulateChurn(agg *Aggregate, smrp *core.Session, spf *spfbase.Session) error {
	costSPF, err := spf.Tree().Cost()
	if err != nil {
		return err
	}
	costSMRP, err := smrp.Tree().Cost()
	if err != nil {
		return err
	}
	if cr, err := metrics.RelativeCost(costSPF, costSMRP); err == nil {
		agg.CostRel.Add(cr)
	}
	for _, m := range smrp.Tree().Members() {
		if !spf.Tree().IsMember(m) {
			continue // schedules are identical, so this cannot happen
		}
		dSPF, err := spf.Tree().DelayTo(m)
		if err != nil {
			return err
		}
		dSMRP, err := smrp.Tree().DelayTo(m)
		if err != nil {
			return err
		}
		if dr, err := metrics.RelativeDelay(dSPF, dSMRP); err == nil {
			agg.DelayRel.Add(dr)
		}
		fS, err := failure.WorstCaseFor(smrp.Tree(), m)
		if err != nil {
			continue
		}
		fG, err := failure.WorstCaseFor(spf.Tree(), m)
		if err != nil {
			continue
		}
		_, rdL, errL := failure.LocalDetour(smrp.Tree(), fS.Mask(), m)
		_, rdG, errG := failure.GlobalDetour(spf.Tree(), fG.Mask(), m)
		if errL != nil || errG != nil {
			agg.Unrecoverable++
			continue
		}
		if rr, err := metrics.RelativeRD(rdG, rdL); err == nil {
			agg.RDRel.Add(rr)
		}
	}
	return nil
}
