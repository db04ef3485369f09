package experiment

import (
	"context"
	"fmt"
	"strings"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/metrics"
	"smrp/internal/protect"
	"smrp/internal/runner"
	"smrp/internal/spfbase"
	"smrp/internal/topology"
)

// ProtectionResult compares SMRP's reactive local detours against the
// preplanned schemes from the paper's related work (§2): Médard et al.
// redundant trees and Han & Shin dependable (primary/backup) connections.
// Proactive schemes recover instantly (recovery distance 0) but pay a
// standing resource cost; the comparison quantifies that trade on the same
// topologies and worst-case failures.
type ProtectionResult struct {
	Runs int
	// Per-scheme worst-case recovery distance (0 when preplanned).
	RDSMRP metrics.Summary
	RDSPF  metrics.Summary
	// Coverage: fraction of worst-case failures each preplanned scheme
	// survives without any reactive recovery at all.
	RedundantCoverage  float64
	DependableCoverage float64
	// Standing resource usage, relative to the single SPF tree.
	CostSMRP       metrics.Summary
	CostRedundant  metrics.Summary
	CostDependable metrics.Summary
	// Per-member delivery-delay ratio (Cho & Breen's cost/delay-ratio
	// metric): each scheme's source→member delivery delay over the unicast
	// shortest-path delay. SPF is 1 by construction; SMRP pays up to
	// 1+DThresh for sharing reduction; the preplanned schemes pay whatever
	// their protected structures impose.
	DelaySMRP       metrics.Summary
	DelayRedundant  metrics.Summary
	DelayDependable metrics.Summary
}

// Render prints the comparison.
func (r *ProtectionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reactive vs preplanned protection (biconnected topologies, %d runs)\n", r.Runs)
	fmt.Fprintf(&b, "  %-28s %-22s %-14s %-16s %-12s\n", "scheme", "worst-case RD", "coverage", "cost / SPF", "delay / SPF")
	fmt.Fprintf(&b, "  %-28s %8.4f ± %-11.4f %-14s %8.3f ± %-6.3f %8.3f ± %.3f\n", "SPF + global detour",
		r.RDSPF.Mean, r.RDSPF.CI95, "reactive", 1.0, 0.0, 1.0, 0.0)
	fmt.Fprintf(&b, "  %-28s %8.4f ± %-11.4f %-14s %8.3f ± %-6.3f %8.3f ± %.3f\n", "SMRP + local detour",
		r.RDSMRP.Mean, r.RDSMRP.CI95, "reactive", r.CostSMRP.Mean, r.CostSMRP.CI95,
		r.DelaySMRP.Mean, r.DelaySMRP.CI95)
	fmt.Fprintf(&b, "  %-28s %8.4f   %-11s %13.1f%% %8.3f ± %-6.3f %8.3f ± %.3f\n", "redundant trees (Médard)",
		0.0, "", 100*r.RedundantCoverage, r.CostRedundant.Mean, r.CostRedundant.CI95,
		r.DelayRedundant.Mean, r.DelayRedundant.CI95)
	fmt.Fprintf(&b, "  %-28s %8.4f   %-11s %13.1f%% %8.3f ± %-6.3f %8.3f ± %.3f\n", "dependable conns (Han-Shin)",
		0.0, "", 100*r.DependableCoverage, r.CostDependable.Mean, r.CostDependable.CI95,
		r.DelayDependable.Mean, r.DelayDependable.CI95)
	return b.String()
}

// protRun is one trial's contribution (ok=false when no biconnected sample
// was drawn). Per-member observations are carried as slices so the fold can
// reproduce the sequential sample order exactly.
type protRun struct {
	ok                         bool
	hasCost                    bool
	costSMRP, costRed, costDep float64
	rdSPF, rdSMRP              []float64
	dlySMRP, dlyRed, dlyDep    []float64
	redOK, redTotal            int
	depOK, depTotal            int
}

// RunProtection executes the comparison on biconnected Waxman samples. Runs
// execute on the parallel runner and fold in run order (bit-identical for any
// worker count).
func RunProtection(ctx context.Context, rc RunConfig, runs int) (*ProtectionResult, error) {
	out := &ProtectionResult{}

	runResults, err := runner.Map(ctx, rc.pool(), runs, func(_ context.Context, t runner.Trial) (*protRun, error) {
		r := t.Index
		pr := &protRun{}
		rng := topology.NewRNG(rc.Seed + uint64(r)*15485863)
		g := sampleBiconnected(rng, 60)
		if g == nil {
			return pr, nil
		}
		source := graph.NodeID(0)
		var members []graph.NodeID
		for _, id := range rng.Sample(g.NumNodes(), 13) {
			if graph.NodeID(id) != source && len(members) < 12 {
				members = append(members, graph.NodeID(id))
			}
		}

		spf, err := spfbase.NewSession(g, source)
		if err != nil {
			return nil, err
		}
		smrp, err := core.NewSession(g, source, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		rt, err := protect.BuildRedundantTrees(g, source)
		if err != nil {
			return nil, err
		}
		dep, err := protect.NewDependableSession(g, source)
		if err != nil {
			return nil, err
		}
		conns := make(map[graph.NodeID]*protect.DependableConnection, len(members))
		for _, m := range members {
			if err := spf.Join(m); err != nil {
				return nil, err
			}
			if _, err := smrp.Join(m); err != nil {
				return nil, err
			}
			if err := rt.Subscribe(m); err != nil {
				return nil, err
			}
			c, err := dep.Join(m)
			if err != nil {
				return nil, err
			}
			conns[m] = c
		}

		// Cho & Breen delay ratio: each scheme's delivery delay to m over the
		// unicast shortest-path delay (the SPF tree's, by construction).
		// Redundant trees deliver on both trees, so the member hears the
		// earlier copy; a dependable connection delivers on its primary.
		for _, m := range members {
			base, err := spf.Tree().DelayTo(m)
			if err != nil || base <= 0 {
				continue
			}
			if d, err := smrp.Tree().DelayTo(m); err == nil {
				pr.dlySMRP = append(pr.dlySMRP, d/base)
			}
			dRed, errR := rt.Red.DelayTo(m)
			dBlue, errB := rt.Blue.DelayTo(m)
			switch {
			case errR == nil && errB == nil:
				pr.dlyRed = append(pr.dlyRed, min(dRed, dBlue)/base)
			case errR == nil:
				pr.dlyRed = append(pr.dlyRed, dRed/base)
			case errB == nil:
				pr.dlyRed = append(pr.dlyRed, dBlue/base)
			}
			if w, err := conns[m].Primary.Weight(g); err == nil {
				pr.dlyDep = append(pr.dlyDep, w/base)
			}
		}

		spfCost, err := spf.Tree().Cost()
		if err != nil {
			return nil, err
		}
		smrpCost, err := smrp.Tree().Cost()
		if err != nil {
			return nil, err
		}
		redCost, err := rt.PrunedCost()
		if err != nil {
			return nil, err
		}
		depCost, err := dep.ReservedCost()
		if err != nil {
			return nil, err
		}
		if spfCost > 0 {
			pr.hasCost = true
			pr.costSMRP = smrpCost / spfCost
			pr.costRed = redCost / spfCost
			pr.costDep = depCost / spfCost
		}

		for _, m := range members {
			fSPF, err := failure.WorstCaseFor(spf.Tree(), m)
			if err != nil {
				return nil, err
			}
			fSMRP, err := failure.WorstCaseFor(smrp.Tree(), m)
			if err != nil {
				return nil, err
			}
			if _, rd, err := failure.GlobalDetour(spf.Tree(), fSPF.Mask(), m); err == nil {
				pr.rdSPF = append(pr.rdSPF, rd)
			}
			if _, rd, err := failure.LocalDetour(smrp.Tree(), fSMRP.Mask(), m); err == nil {
				pr.rdSMRP = append(pr.rdSMRP, rd)
			}
			// Preplanned schemes face the SPF-tree worst case (they have no
			// tree of their own shape to bias the pick).
			pr.redTotal++
			reach := rt.Survives(fSPF.Mask(), m)
			if reach.ViaRed || reach.ViaBlue {
				pr.redOK++
			}
			pr.depTotal++
			if o, err := dep.Failover(fSPF.Mask(), m); err == nil && o != protect.BothChannelsDown {
				pr.depOK++
			}
		}
		pr.ok = true
		return pr, nil
	})
	if err != nil {
		return nil, err
	}

	var rdSMRP, rdSPF, costSMRP, costRed, costDep metrics.Sample
	var dlySMRP, dlyRed, dlyDep metrics.Sample
	var redOK, redTotal, depOK, depTotal int
	for _, pr := range runResults {
		if !pr.ok {
			continue
		}
		if pr.hasCost {
			costSMRP.Add(pr.costSMRP)
			costRed.Add(pr.costRed)
			costDep.Add(pr.costDep)
		}
		for _, rd := range pr.rdSPF {
			rdSPF.Add(rd)
		}
		for _, rd := range pr.rdSMRP {
			rdSMRP.Add(rd)
		}
		dlySMRP.AddAll(pr.dlySMRP...)
		dlyRed.AddAll(pr.dlyRed...)
		dlyDep.AddAll(pr.dlyDep...)
		redOK += pr.redOK
		redTotal += pr.redTotal
		depOK += pr.depOK
		depTotal += pr.depTotal
		out.Runs++
	}
	if out.Runs == 0 {
		return nil, fmt.Errorf("experiment: no biconnected samples drawn")
	}
	if out.RDSMRP, err = rdSMRP.Summarize(); err != nil {
		return nil, err
	}
	if out.RDSPF, err = rdSPF.Summarize(); err != nil {
		return nil, err
	}
	if out.CostSMRP, err = costSMRP.Summarize(); err != nil {
		return nil, err
	}
	if out.CostRedundant, err = costRed.Summarize(); err != nil {
		return nil, err
	}
	if out.CostDependable, err = costDep.Summarize(); err != nil {
		return nil, err
	}
	if out.DelaySMRP, err = dlySMRP.Summarize(); err != nil {
		return nil, err
	}
	if out.DelayRedundant, err = dlyRed.Summarize(); err != nil {
		return nil, err
	}
	if out.DelayDependable, err = dlyDep.Summarize(); err != nil {
		return nil, err
	}
	if redTotal > 0 {
		out.RedundantCoverage = float64(redOK) / float64(redTotal)
	}
	if depTotal > 0 {
		out.DependableCoverage = float64(depOK) / float64(depTotal)
	}
	return out, nil
}

// sampleBiconnected draws Waxman graphs until one is biconnected (denser
// parameters than the headline experiments; preplanned protection requires
// redundancy to exist at all).
func sampleBiconnected(rng *topology.RNG, n int) *graph.Graph {
	for tries := 0; tries < 60; tries++ {
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: n, Alpha: 0.6, Beta: 0.4, EnsureConnected: true,
		}, rng)
		if err != nil {
			return nil
		}
		if protect.Biconnected(g) {
			return g
		}
	}
	return nil
}
