package experiment

// The benchmark harness regenerates every figure of the paper's evaluation
// (§4) plus the in-text claims and the design ablations. Each benchmark
// prints the same rows/series the paper plots and reports the regeneration
// cost. Run with:
//
//	go test -run '^$' -bench=. -benchmem ./internal/experiment/
//
// Full paper-scale scenario counts (10 topologies × 10 member sets) are used
// when -bench runs with -benchtime=1x or more; results land on stdout so
// EXPERIMENTS.md can record paper-vs-measured values.

import (
	"fmt"
	"testing"
	"time"
)

// paperScale are the scenario counts of §4.3.2–4.3.4: ten random topologies
// and ten member sets per topology.
const (
	paperTopologies = 10
	paperMemberSets = 10
	benchSeed       = 2005 // the paper's year; fixed for reproducibility
)

// BenchmarkFig7 regenerates Figure 7: the local-vs-global detour scatter
// over five random topologies (N=100, N_G=30, α=0.2, D_thresh=0.3) and the
// in-text ≈33% average reduction.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunFig7(bg, RunConfig{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nFigure 7: points=%d below-diagonal=%.1f%% mean-reduction=%.1f%%\n",
				len(res.Points), 100*res.BelowDiagonal, 100*res.MeanReduction)
		}
		b.ReportMetric(100*res.MeanReduction, "%reduction")
	}
}

// BenchmarkFig8 regenerates Figure 8: the D_thresh sweep with 95% CIs over
// 100 scenarios per point.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunFig8(bg, RunConfig{Seed: benchSeed}, paperTopologies, paperMemberSets)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(100*res.Rows[2].RDRel.Mean, "%RDrel@0.3")
	}
}

// BenchmarkFig9 regenerates Figure 9: the α / average-node-degree sweep.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunFig9(bg, RunConfig{Seed: benchSeed}, paperTopologies, paperMemberSets)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(100*res.Rows[len(res.Rows)-1].RDRel.Mean, "%RDrel@hi-deg")
	}
}

// BenchmarkFig10 regenerates Figure 10: the group-size sweep.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunFig10(bg, RunConfig{Seed: benchSeed}, paperTopologies, paperMemberSets)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(100*res.Rows[len(res.Rows)-1].RDRel.Mean, "%RDrel@NG50")
	}
}

// BenchmarkDegree10 regenerates the §4.3.3 in-text claim: ≈12% recovery-path
// reduction persists when the average node degree approaches 10.
func BenchmarkDegree10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunDegree10(bg, RunConfig{Seed: benchSeed}, paperTopologies, paperMemberSets/2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.AvgDegree, "avg-degree")
		b.ReportMetric(100*last.RDRel.Mean, "%RDrel")
	}
}

// BenchmarkLatency regenerates the motivating claim at the message level:
// restoration latency of local detours vs. reconvergence-gated rejoins on
// the event-driven protocol implementations.
func BenchmarkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunLatency(bg, RunConfig{Seed: benchSeed}, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(res.Speedup, "speedup-x")
	}
}

// BenchmarkHierarchy regenerates the §3.3.3 architecture comparison:
// recovery scope confined to one domain vs. the whole network.
func BenchmarkHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunHierarchy(bg, RunConfig{Seed: benchSeed}, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(res.ScopeFlat.Mean/res.ScopeHier.Mean, "scope-shrink-x")
	}
}

// BenchmarkAblations regenerates the design-ablation table: local detour on
// the SPF tree (tree shape vs. recovery strategy), the §3.3.1 query scheme,
// §3.3.2 deferred SHR maintenance, and §3.2.3 reshaping variants — all
// measured on identical scenario sets.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunAblations(bg, RunConfig{Seed: benchSeed}, 5, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		for _, row := range res.Rows {
			if row.Name == "smrp-full" {
				b.ReportMetric(100*row.RDRel.Mean, "%RDrel-full")
			}
		}
	}
}

// BenchmarkChurn regenerates the reshaping-under-churn extension study
// (§3.2.3's motivation measured end to end).
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunChurn(bg, RunConfig{Seed: benchSeed}, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(100*res.Rows[len(res.Rows)-1].RDRel.Mean, "%RDrel-reshaped")
	}
}

// BenchmarkNLevel measures how recovery scope shrinks as hierarchy depth
// grows (the §3.3.3 N-level generalization).
func BenchmarkNLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunNLevel(bg, RunConfig{Seed: benchSeed}, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(res.ScopeFlat.Mean/res.ScopeLeaf.Mean, "scope-shrink-x")
	}
}

// BenchmarkProtection regenerates the related-work comparison: reactive
// recovery (SMRP, SPF) vs preplanned protection (Médard redundant trees,
// Han-Shin dependable connections) on biconnected topologies.
func BenchmarkProtection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunProtection(bg, RunConfig{Seed: benchSeed}, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(100*res.RedundantCoverage, "%redundant-coverage")
		b.ReportMetric(res.CostRedundant.Mean, "redundant-cost-x")
	}
}

// BenchmarkThroughput regenerates the sharded session-throughput study:
// sessions advancing concurrently on one shared topology and one shared
// lock-free SPF cache, each admitting a flash crowd through the batched
// join path and then riding a high-rate churn storm. The study's rendered
// counters are deterministic; the rates reported here are this machine's
// wall clock over them.
func BenchmarkThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := RunThroughput(bg, RunConfig{Seed: benchSeed}, 10)
		if err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		if i == 0 {
			fmt.Printf("\n%s", res.Render())
		}
		b.ReportMetric(float64(res.Joins)/wall, "joins/sec")
		b.ReportMetric(float64(res.Events)/wall, "events/sec")
		b.ReportMetric(res.SettledPerJoin(), "settled/join")
	}
}
