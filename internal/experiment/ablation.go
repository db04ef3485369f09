package experiment

import (
	"context"
	"fmt"
	"strings"

	"smrp/internal/core"
	"smrp/internal/metrics"
	"smrp/internal/runner"
)

// AblationRow is one configuration variant of an ablation study.
type AblationRow struct {
	Name     string
	RDRel    metrics.Summary
	DelayRel metrics.Summary
	CostRel  metrics.Summary
	// Overhead counters (per scenario averages) for the §3.3.2 comparison.
	SHRUpdates  float64
	SHRComputes float64
	QueryMsgs   float64
	Reshapes    float64
}

// AblationResult is a full ablation study.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Render prints the study as an aligned table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "  %-24s %-20s %-20s %-20s %-10s %-10s %-10s %-8s\n",
		"variant", "RD_rel", "Delay_rel", "Cost_rel", "shr-upd", "shr-cmp", "queries", "reshapes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-24s %7.4f ± %-9.4f %7.4f ± %-9.4f %7.4f ± %-9.4f %-10.1f %-10.1f %-10.1f %-8.1f\n",
			row.Name,
			row.RDRel.Mean, row.RDRel.CI95,
			row.DelayRel.Mean, row.DelayRel.CI95,
			row.CostRel.Mean, row.CostRel.CI95,
			row.SHRUpdates, row.SHRComputes, row.QueryMsgs, row.Reshapes)
	}
	return b.String()
}

// ablationRow summarizes one variant's scenario results (in scenario order)
// into its metrics and per-scenario overhead counters.
func ablationRow(name string, results []*Result, useLocalOnSPF bool) (AblationRow, error) {
	var agg Aggregate
	var updates, computes, queries, reshapes float64
	for _, res := range results {
		if err := agg.Accumulate(res); err != nil {
			return AblationRow{}, err
		}
		updates += float64(res.SMRPStats.SHRUpdates)
		computes += float64(res.SMRPStats.SHRComputes)
		queries += float64(res.SMRPStats.QueryMessages)
		reshapes += float64(res.SMRPStats.Reshapes)
	}
	n := float64(len(results))
	rdSample := agg.RDRel
	if useLocalOnSPF {
		rdSample = agg.RDRelLocalOnSPF
	}
	rd, err := rdSample.Summarize()
	if err != nil {
		return AblationRow{}, fmt.Errorf("ablation %s: %w", name, err)
	}
	dl, err := agg.DelayRel.Summarize()
	if err != nil {
		return AblationRow{}, err
	}
	ct, err := agg.CostRel.Summarize()
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name:        name,
		RDRel:       rd,
		DelayRel:    dl,
		CostRel:     ct,
		SHRUpdates:  updates / n,
		SHRComputes: computes / n,
		QueryMsgs:   queries / n,
		Reshapes:    reshapes / n,
	}, nil
}

// RunAblations executes the four design ablations called out in DESIGN.md on
// a shared scenario set:
//
//   - detour-on-spf-tree: local detours applied to the *SPF* tree, isolating
//     how much of the gain comes from the recovery strategy vs. the SMRP
//     tree shape;
//   - query-scheme: §3.3.1 partial-knowledge joins vs. full topology;
//   - deferred-shr: §3.3.2 lazy SHR maintenance, which builds smrp-full's
//     trees and pays in recomputes instead of update messages. Every session
//     charges both costs, so this row is smrp-full's run with the other cost
//     column, and the eager rows show only their updates;
//   - no-reshaping / condition-I-only: §3.2.3 contribution of reshaping.
func RunAblations(ctx context.Context, rc RunConfig, nTopo, nSets int) (*AblationResult, error) {
	base := DefaultBase()
	scenarios, err := GenScenarios(base, nTopo, nSets, rc.Seed)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{
		Title: fmt.Sprintf("Design ablations (N=%d NG=%d alpha=%.2f Dthresh=%.1f, %d scenarios)",
			base.N, base.NG, base.Alpha, base.SMRP.DThresh, len(scenarios)),
	}

	full := core.DefaultConfig()

	noReshape := full
	noReshape.ReshapeDelta = 0
	noReshape.PeriodicReshape = false

	condIOnly := full
	condIOnly.PeriodicReshape = false

	query := full
	query.Knowledge = core.QueryScheme

	// The configurations run in lockstep: each scenario is evaluated under
	// all of them before the next. They share the topology's SPF cache,
	// which keeps only healthy trees, so the lockstep saves no miss.
	// detour-on-spf-tree reads smrp-full's run with the other RD sample, and
	// deferred-shr prices it with the other cost column.
	configs := []core.Config{full, query, noReshape, condIOnly}
	results, err := runner.Map(ctx, rc.pool(), len(scenarios), func(_ context.Context, t runner.Trial) ([]*Result, error) {
		out := make([]*Result, len(configs))
		for ci, cfg := range configs {
			res, err := Evaluate(scenarios[t.Index], cfg)
			if err != nil {
				return nil, err
			}
			out[ci] = res
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var fullComputes float64
	for _, v := range []struct {
		name       string
		config     int // index into configs
		localOnSPF bool
		deferred   bool // priced from smrp-full's run
	}{
		{name: "smrp-full"},
		{name: "detour-on-spf-tree", localOnSPF: true},
		{name: "query-scheme", config: 1},
		{name: "deferred-shr", deferred: true},
		{name: "no-reshaping", config: 2},
		{name: "condition-I-only", config: 3},
	} {
		if v.deferred {
			row := out.Rows[0]
			row.Name, row.SHRUpdates, row.SHRComputes = v.name, 0, fullComputes
			out.Rows = append(out.Rows, row)
			continue
		}
		variant := make([]*Result, len(results))
		for i, r := range results {
			variant[i] = r[v.config]
		}
		row, err := ablationRow(v.name, variant, v.localOnSPF)
		if err != nil {
			return nil, err
		}
		if len(out.Rows) == 0 {
			fullComputes = row.SHRComputes
		}
		row.SHRComputes = 0
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
