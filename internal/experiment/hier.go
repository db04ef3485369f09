package experiment

import (
	"context"
	"fmt"
	"strings"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/hierarchy"
	"smrp/internal/metrics"
	"smrp/internal/runner"
	"smrp/internal/topology"
)

// HierResult reproduces the §3.3.3 / Figure 6 architecture comparison:
// failures inside a stub domain are recovered with reconfiguration confined
// to that domain, versus a flat session where any node may be touched.
type HierResult struct {
	Runs int
	// ScopeHier is the number of nodes in the recovery domain that had to
	// react; ScopeFlat is the whole-network size a flat session exposes.
	ScopeHier metrics.Summary
	ScopeFlat metrics.Summary
	// RDHier / RDFlat are total recovery distances for the same failure.
	RDHier metrics.Summary
	RDFlat metrics.Summary
	// DelayStretch is the hierarchical end-to-end delay relative to the
	// flat SMRP tree (the price of domain confinement).
	DelayStretch metrics.Summary
}

// Render prints the comparison.
func (r *HierResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hierarchical recovery architecture (transit–stub, %d runs)\n", r.Runs)
	fmt.Fprintf(&b, "  %-28s %-24s %-24s\n", "metric", "hierarchical", "flat")
	fmt.Fprintf(&b, "  %-28s %8.2f ± %-13.2f %8.2f ± %-13.2f\n", "recovery scope (nodes)",
		r.ScopeHier.Mean, r.ScopeHier.CI95, r.ScopeFlat.Mean, r.ScopeFlat.CI95)
	fmt.Fprintf(&b, "  %-28s %8.4f ± %-13.4f %8.4f ± %-13.4f\n", "total recovery distance",
		r.RDHier.Mean, r.RDHier.CI95, r.RDFlat.Mean, r.RDFlat.CI95)
	fmt.Fprintf(&b, "  %-28s %8.4f ± %-13.4f\n", "delay stretch (hier/flat)",
		r.DelayStretch.Mean, r.DelayStretch.CI95)
	return b.String()
}

// hierRun is one trial's contribution. Delay-stretch observations are
// recorded even when the failure-recovery phase is skipped (matching the
// sequential accounting); scope/RD observations only when ok.
type hierRun struct {
	stretches      []float64
	ok             bool
	scopeH, scopeF float64
	rdH, rdF       float64
}

// RunHierarchy builds paired hierarchical and flat SMRP sessions over
// transit–stub topologies, injects a worst-case failure inside a member's
// stub domain, and compares recovery scope and distance. Runs execute on the
// parallel runner and fold in run order (bit-identical for any worker
// count).
func RunHierarchy(ctx context.Context, rc RunConfig, runs int) (*HierResult, error) {
	cfg := core.DefaultConfig()
	out := &HierResult{}

	runResults, err := runner.Map(ctx, rc.pool(), runs, func(_ context.Context, t runner.Trial) (*hierRun, error) {
		r := t.Index
		hr := &hierRun{}
		rng := topology.NewRNG(rc.Seed + uint64(r)*104729)
		ts, err := topology.GenerateTransitStub(topology.DefaultTransitStubConfig(), rng)
		if err != nil {
			return nil, err
		}
		// Source: first non-gateway node of the first stub, domain 1.
		stubs := ts.Domains[1:]
		var src graph.NodeID = graph.Invalid
		for _, n := range stubs[0].Nodes {
			if n != stubs[0].Gateway {
				src = n
				break
			}
		}
		if src == graph.Invalid {
			return hr, nil
		}
		// Members: two non-gateway nodes from every stub.
		var members []graph.NodeID
		for _, stub := range stubs {
			count := 0
			for _, n := range stub.Nodes {
				if n != stub.Gateway && n != src {
					members = append(members, n)
					if count++; count == 2 {
						break
					}
				}
			}
		}

		hier, err := hierarchy.NewNLevel(ts, src, cfg)
		if err != nil {
			return nil, err
		}
		flat, err := core.NewSession(ts.Graph, src, cfg)
		if err != nil {
			return nil, err
		}
		for _, m := range members {
			if err := hier.Join(m); err != nil {
				return nil, err
			}
			if _, err := flat.Join(m); err != nil {
				return nil, err
			}
		}

		// Delay stretch across members.
		for _, m := range members {
			dh, err := hier.EndToEndDelay(m)
			if err != nil {
				return nil, err
			}
			df, err := flat.Tree().DelayTo(m)
			if err != nil {
				return nil, err
			}
			if df > 0 {
				hr.stretches = append(hr.stretches, dh/df)
			}
		}

		// Worst-case failure for a member in a non-source stub, inside its
		// own stub domain.
		victim := graph.Invalid
		for _, m := range members {
			if ts.DomainOf(m) != ts.DomainOf(src) {
				victim = m
				break
			}
		}
		if victim == graph.Invalid {
			return hr, nil
		}
		f, err := hier.WorstCaseFor(victim)
		if err != nil {
			return hr, nil
		}
		hrep, err := hier.Recover(f)
		if err != nil {
			return hr, nil // failure may be unrecoverable inside the domain
		}
		frep, err := flat.Recover(f)
		if err != nil {
			return hr, nil
		}
		hr.ok = true
		hr.scopeH = float64(hrep.NodesInDomain)
		hr.scopeF = float64(ts.Graph.NumNodes())
		hr.rdH = hrep.Heal.TotalRecoveryDistance()
		hr.rdF = frep.TotalRecoveryDistance()
		return hr, nil
	})
	if err != nil {
		return nil, err
	}

	// Fold in run order: delay-stretch observations from every run, scope/RD
	// only from runs whose failure-recovery phase completed.
	var stretch, scopeH, scopeF, rdH, rdF metrics.Sample
	for _, hr := range runResults {
		for _, s := range hr.stretches {
			stretch.Add(s)
		}
		if !hr.ok {
			continue
		}
		scopeH.Add(hr.scopeH)
		scopeF.Add(hr.scopeF)
		rdH.Add(hr.rdH)
		rdF.Add(hr.rdF)
		out.Runs++
	}
	if out.Runs == 0 {
		return nil, fmt.Errorf("experiment: no usable hierarchy runs")
	}
	if out.ScopeHier, err = scopeH.Summarize(); err != nil {
		return nil, err
	}
	if out.ScopeFlat, err = scopeF.Summarize(); err != nil {
		return nil, err
	}
	if out.RDHier, err = rdH.Summarize(); err != nil {
		return nil, err
	}
	if out.RDFlat, err = rdF.Summarize(); err != nil {
		return nil, err
	}
	if out.DelayStretch, err = stretch.Summarize(); err != nil {
		return nil, err
	}
	return out, nil
}
