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

// NLevelResult measures how recovery scope scales with hierarchy depth —
// the §3.3.3 claim that the 2-level architecture "can be easily generalized
// into an N-level architecture": the deeper the hierarchy, the smaller the
// fraction of the network any single failure can touch.
type NLevelResult struct {
	Runs int
	// ScopeLeaf is the recovery scope for failures inside leaf domains;
	// ScopeFlat is the whole network.
	ScopeLeaf metrics.Summary
	ScopeFlat metrics.Summary
	// Levels/Domains/Nodes describe the topology under test.
	Levels, Domains, Nodes int
}

// Render prints the study.
func (r *NLevelResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "N-level recovery architecture (%d levels, %d domains, %d nodes, %d runs)\n",
		r.Levels, r.Domains, r.Nodes, r.Runs)
	fmt.Fprintf(&b, "  leaf-domain recovery scope: %8.2f ± %.2f nodes\n", r.ScopeLeaf.Mean, r.ScopeLeaf.CI95)
	fmt.Fprintf(&b, "  flat recovery scope:        %8.2f ± %.2f nodes (%.1fx shrink)\n",
		r.ScopeFlat.Mean, r.ScopeFlat.CI95, r.ScopeFlat.Mean/r.ScopeLeaf.Mean)
	return b.String()
}

// nlevelRun is one trial's contribution (ok=false when the run was skipped
// before its failure-recovery phase completed). Domains/Nodes describe the
// generated topology and are recorded even for skipped runs, matching the
// sequential accounting.
type nlevelRun struct {
	ok                   bool
	scopeLeaf, scopeFlat float64
	domains, nodes       int
}

// RunNLevel builds 3-level sessions, fails worst-case links inside leaf
// domains, and compares the domain-confined scope against a flat session's
// whole-network scope. Runs execute on the parallel runner and fold in run
// order (bit-identical for any worker count).
func RunNLevel(ctx context.Context, rc RunConfig, runs int) (*NLevelResult, error) {
	cfg := topology.DefaultNLevelConfig()
	out := &NLevelResult{Levels: cfg.Levels}

	runResults, err := runner.Map(ctx, rc.pool(), runs, func(_ context.Context, t runner.Trial) (*nlevelRun, error) {
		r := t.Index
		nr := &nlevelRun{}
		rng := topology.NewRNG(rc.Seed + uint64(r)*32452843)
		nt, err := topology.GenerateNLevel(cfg, rng)
		if err != nil {
			return nil, err
		}
		nr.domains = len(nt.Domains)
		nr.nodes = nt.Graph.NumNodes()
		leaves := nt.Leaves()
		srcLeaf := nt.Domains[leaves[0]]
		var src graph.NodeID = graph.Invalid
		for _, n := range srcLeaf.Nodes {
			if n != srcLeaf.Gateway {
				src = n
				break
			}
		}
		if src == graph.Invalid {
			return nr, nil
		}
		sess, err := hierarchy.NewNLevel(nt, src, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		// One member per leaf domain.
		var victim graph.NodeID = graph.Invalid
		for _, li := range leaves[1:] {
			d := nt.Domains[li]
			for _, n := range d.Nodes {
				if n != d.Gateway {
					if err := sess.Join(n); err != nil {
						return nil, err
					}
					if victim == graph.Invalid {
						victim = n
					}
					break
				}
			}
		}
		if victim == graph.Invalid {
			return nr, nil
		}
		f, err := sess.WorstCaseFor(victim)
		if err != nil {
			return nr, nil
		}
		rep, err := sess.Recover(f)
		if err != nil {
			return nr, nil
		}
		nr.ok = true
		nr.scopeLeaf = float64(rep.NodesInDomain)
		nr.scopeFlat = float64(nt.Graph.NumNodes())
		return nr, nil
	})
	if err != nil {
		return nil, err
	}

	var scopeLeaf, scopeFlat metrics.Sample
	for _, nr := range runResults {
		out.Domains = nr.domains
		out.Nodes = nr.nodes
		if !nr.ok {
			continue
		}
		scopeLeaf.Add(nr.scopeLeaf)
		scopeFlat.Add(nr.scopeFlat)
		out.Runs++
	}
	if out.Runs == 0 {
		return nil, fmt.Errorf("experiment: no usable N-level runs")
	}
	if out.ScopeLeaf, err = scopeLeaf.Summarize(); err != nil {
		return nil, err
	}
	if out.ScopeFlat, err = scopeFlat.Summarize(); err != nil {
		return nil, err
	}
	return out, nil
}
