package experiment

import (
	"context"
	"fmt"
	"strings"

	"smrp/internal/core"
	"smrp/internal/metrics"
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

// ablationVariant evaluates all scenarios under one SMRP configuration on
// the parallel runner and summarizes metrics plus overhead counters. The
// scenario set is shared between variants, so the per-topology SPF caches
// attached by GenScenarios serve hits across the whole study.
func ablationVariant(ctx context.Context, rc RunConfig, name string, scenarios []Scenario, cfg core.Config, useLocalOnSPF bool) (AblationRow, error) {
	results, err := evaluateAll(ctx, rc, scenarios, cfg)
	if err != nil {
		return AblationRow{}, err
	}
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
	n := float64(len(scenarios))
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
//   - deferred-shr: §3.3.2 lazy SHR maintenance (identical metrics, very
//     different overhead profile);
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

	deferred := full
	deferred.SHRMode = core.DeferredSHR

	type variant struct {
		name       string
		cfg        core.Config
		localOnSPF bool
	}
	for _, v := range []variant{
		{name: "smrp-full", cfg: full},
		{name: "detour-on-spf-tree", cfg: full, localOnSPF: true},
		{name: "query-scheme", cfg: query},
		{name: "deferred-shr", cfg: deferred},
		{name: "no-reshaping", cfg: noReshape},
		{name: "condition-I-only", cfg: condIOnly},
	} {
		row, err := ablationVariant(ctx, rc, v.name, scenarios, v.cfg, v.localOnSPF)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
