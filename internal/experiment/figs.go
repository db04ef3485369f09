package experiment

import (
	"context"
	"fmt"
	"strings"

	"smrp/internal/core"
	"smrp/internal/metrics"
	"smrp/internal/runner"
)

// Fig7Point is one scatter point of Figure 7: a member's worst-case recovery
// distance via global detour (x) and via local detour (y).
type Fig7Point struct {
	Global float64
	Local  float64
}

// Fig7Result reproduces Figure 7 (§4.3.1): local vs. global detour over five
// random topologies with the default parameters.
type Fig7Result struct {
	Points []Fig7Point
	// MeanReduction is the average relative shortening of the recovery path
	// (the paper reports ≈33%).
	MeanReduction float64
	// BelowDiagonal is the fraction of points with Local < Global ("most
	// points are below the line y = x").
	BelowDiagonal float64
	Unrecoverable int
}

// RunFig7 executes the Figure 7 experiment: N=100, N_G=30, α=0.2,
// D_thresh=0.3, five random topologies, worst-case failure per member.
// Scenarios are evaluated on rc.Workers workers; per-scenario results fold
// in trial order, so the output is identical for any worker count. A
// cancelled ctx stops trial dispatch promptly and returns ctx.Err(); the
// same holds for every Run* study of this package.
func RunFig7(ctx context.Context, rc RunConfig) (*Fig7Result, error) {
	base := DefaultBase()
	scenarios, err := GenScenarios(base, 5, 1, rc.Seed)
	if err != nil {
		return nil, err
	}
	results, err := evaluateAll(ctx, rc, scenarios, base.SMRP)
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{}
	var rel metrics.Sample
	below := 0
	for _, res := range results {
		for _, o := range res.Members {
			if !o.Recoverable {
				out.Unrecoverable++
				continue
			}
			out.Points = append(out.Points, Fig7Point{Global: o.RDGlobalSPF, Local: o.RDLocalSMRP})
			if o.RDLocalSMRP < o.RDGlobalSPF {
				below++
			}
			rr, err := metrics.RelativeRD(o.RDGlobalSPF, o.RDLocalSMRP)
			if err != nil {
				return nil, err
			}
			rel.Add(rr)
		}
	}
	out.MeanReduction = rel.Mean()
	if len(out.Points) > 0 {
		out.BelowDiagonal = float64(below) / float64(len(out.Points))
	}
	return out, nil
}

// Render prints the scatter summary the way the paper's text reports it.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: local vs. global detour (N=100 NG=30 alpha=0.2 Dthresh=0.3)\n")
	fmt.Fprintf(&b, "  points=%d below-diagonal=%.1f%% mean-reduction=%.1f%% unrecoverable=%d\n",
		len(r.Points), 100*r.BelowDiagonal, 100*r.MeanReduction, r.Unrecoverable)
	fmt.Fprintf(&b, "  %-12s %-12s\n", "global-RD", "local-RD")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-12.4f %-12.4f\n", p.Global, p.Local)
	}
	return b.String()
}

// SweepRow is one x-axis point of Figures 8–10: the swept parameter value
// plus the three relative metrics with 95% confidence intervals.
type SweepRow struct {
	Label     string // swept parameter rendering, e.g. "0.3"
	X         float64
	RDRel     metrics.Summary
	DelayRel  metrics.Summary
	CostRel   metrics.Summary
	AvgDegree float64
}

// SweepResult is a full figure: one row per swept value.
type SweepResult struct {
	Title string
	XName string
	Rows  []SweepRow
}

// Render prints the figure as the table of series the paper plots.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "  %-10s %-22s %-22s %-22s %-8s\n",
		r.XName, "RD_rel (mean±ci95)", "Delay_rel (mean±ci95)", "Cost_rel (mean±ci95)", "avg-deg")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %8.4f ± %-11.4f %8.4f ± %-11.4f %8.4f ± %-11.4f %-8.2f\n",
			row.Label,
			row.RDRel.Mean, row.RDRel.CI95,
			row.DelayRel.Mean, row.DelayRel.CI95,
			row.CostRel.Mean, row.CostRel.CI95,
			row.AvgDegree)
	}
	return b.String()
}

// evaluateAll measures every scenario on the parallel runner and returns the
// results ordered by scenario index.
func evaluateAll(ctx context.Context, rc RunConfig, scenarios []Scenario, cfg core.Config) ([]*Result, error) {
	return runner.Map(ctx, rc.pool(), len(scenarios), func(_ context.Context, t runner.Trial) (*Result, error) {
		return Evaluate(scenarios[t.Index], cfg)
	})
}

// sweepPoint evaluates all scenarios for one swept configuration and
// produces a row. Scenario evaluation fans out across the worker pool;
// accumulation happens afterwards in scenario order, keeping the row
// bit-identical for any worker count.
func sweepPoint(ctx context.Context, rc RunConfig, label string, x float64, base Base, nTopo, nSets int) (SweepRow, error) {
	scenarios, err := GenScenarios(base, nTopo, nSets, rc.Seed)
	if err != nil {
		return SweepRow{}, err
	}
	results, err := evaluateAll(ctx, rc, scenarios, base.SMRP)
	if err != nil {
		return SweepRow{}, err
	}
	var agg Aggregate
	for _, res := range results {
		if err := agg.Accumulate(res); err != nil {
			return SweepRow{}, err
		}
	}
	rd, err := agg.RDRel.Summarize()
	if err != nil {
		return SweepRow{}, fmt.Errorf("experiment: %s: %w", label, err)
	}
	dl, err := agg.DelayRel.Summarize()
	if err != nil {
		return SweepRow{}, err
	}
	ct, err := agg.CostRel.Summarize()
	if err != nil {
		return SweepRow{}, err
	}
	return SweepRow{
		Label:     label,
		X:         x,
		RDRel:     rd,
		DelayRel:  dl,
		CostRel:   ct,
		AvgDegree: agg.AvgDegree.Mean(),
	}, nil
}

// Fig8DThreshValues are the four D_thresh values swept in Figure 8.
var Fig8DThreshValues = []float64{0.1, 0.2, 0.3, 0.4}

// RunFig8 reproduces Figure 8 (§4.3.2): the effect of D_thresh with
// N=100, N_G=30, α=0.2, over 10 topologies × 10 member sets, with 95% CIs.
// The same 100 scenarios are reused across the sweep (paired comparison).
func RunFig8(ctx context.Context, rc RunConfig, nTopo, nSets int) (*SweepResult, error) {
	out := &SweepResult{
		Title: fmt.Sprintf("Figure 8: effect of D_thresh (N=100 NG=30 alpha=0.2, %d scenarios)", nTopo*nSets),
		XName: "D_thresh",
	}
	for _, dt := range Fig8DThreshValues {
		base := DefaultBase()
		base.SMRP.DThresh = dt
		row, err := sweepPoint(ctx, rc, fmt.Sprintf("%.1f", dt), dt, base, nTopo, nSets)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fig9AlphaValues are the four α values swept in Figure 9.
var Fig9AlphaValues = []float64{0.15, 0.2, 0.25, 0.3}

// RunFig9 reproduces Figure 9 (§4.3.3): the effect of the average node
// degree (tuned through α) with N=100, N_G=30, D_thresh=0.3. Each row also
// reports the measured average node degree, as the figure annotates.
func RunFig9(ctx context.Context, rc RunConfig, nTopo, nSets int) (*SweepResult, error) {
	out := &SweepResult{
		Title: fmt.Sprintf("Figure 9: effect of alpha / node degree (N=100 NG=30 Dthresh=0.3, %d scenarios)", nTopo*nSets),
		XName: "alpha",
	}
	for _, a := range Fig9AlphaValues {
		base := DefaultBase()
		base.Alpha = a
		row, err := sweepPoint(ctx, rc, fmt.Sprintf("%.2f", a), a, base, nTopo, nSets)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fig10GroupSizes are the four group sizes swept in Figure 10.
var Fig10GroupSizes = []int{20, 30, 40, 50}

// RunFig10 reproduces Figure 10 (§4.3.4): the effect of the group size N_G
// with N=100, α=0.2, D_thresh=0.3.
func RunFig10(ctx context.Context, rc RunConfig, nTopo, nSets int) (*SweepResult, error) {
	out := &SweepResult{
		Title: fmt.Sprintf("Figure 10: effect of group size (N=100 alpha=0.2 Dthresh=0.3, %d scenarios)", nTopo*nSets),
		XName: "N_G",
	}
	for _, ng := range Fig10GroupSizes {
		base := DefaultBase()
		base.NG = ng
		row, err := sweepPoint(ctx, rc, fmt.Sprintf("%d", ng), float64(ng), base, nTopo, nSets)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RunDegree10 reproduces the §4.3.3 in-text claim: even at an average node
// degree around 10, SMRP still shortens recovery paths (the paper reports
// ≈12% at ≈5% penalty). α is raised until the measured degree approaches 10.
func RunDegree10(ctx context.Context, rc RunConfig, nTopo, nSets int) (*SweepResult, error) {
	out := &SweepResult{
		Title: fmt.Sprintf("§4.3.3 in-text: high-connectivity study (N=100 NG=30 Dthresh=0.3, %d scenarios)", nTopo*nSets),
		XName: "alpha",
	}
	for _, a := range []float64{0.5, 0.65} {
		base := DefaultBase()
		base.Alpha = a
		row, err := sweepPoint(ctx, rc, fmt.Sprintf("%.2f", a), a, base, nTopo, nSets)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
