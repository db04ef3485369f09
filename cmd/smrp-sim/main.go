// Command smrp-sim regenerates the paper's evaluation figures and the
// repository's extension studies.
//
// Usage:
//
//	smrp-sim -fig 7                    # Figure 7 scatter + summary
//	smrp-sim -fig 8 -topos 10 -sets 10 # Figure 8 at paper scale
//	smrp-sim -fig 9 -workers 4         # Figure 9 on 4 worker goroutines
//	smrp-sim -fig all                  # everything, EXPERIMENTS.md style
//
// The studies are the rows of experiment.Studies; -fig takes a row's name in
// any letter case. "all" runs 7, 8, 9, 10, degree10, latency, hierarchy,
// ablations (on -topos/2 × -sets/2), churn, nlevel and protection. Five run
// only when named: chaos (the multi-failure invariant-oracle harness),
// strategies (the three-way recovery-strategy testbed), throughput (sharded
// session throughput), megascale (flat vs hierarchical scaling; -hieronly
// skips the flat arm, admitting the N=10⁶ tier) and multigroup (thousands of
// groups on one shared topology). A study that checks an oracle exits
// non-zero when its report lists violations.
//
// Scenarios within a figure execute on a deterministic parallel runner
// (-workers, default GOMAXPROCS). Output is bit-identical for every worker
// count: each trial derives its RNG stream from (seed, trial index) alone and
// results fold in trial order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"

	"smrp/internal/experiment"
	"smrp/internal/graph"
	"smrp/internal/prof"
)

func main() {
	// Ctrl-C cancels the context; in-flight trials stop dispatching and the
	// run exits with ctx.Err() instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "smrp-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("smrp-sim", flag.ContinueOnError)
	profFlags := prof.Register(fs)
	var (
		a        experiment.Args
		rc       experiment.RunConfig
		fig      = fs.String("fig", "all", "which study to run: "+experiment.FigUsage())
		csv      = fs.String("csv", "", "also write machine-readable results to this file (-fig "+experiment.CSVUsage()+")")
		spfstats = fs.Bool("spfstats", false, "print per-study SPF cache/delta-repair counters after each study")
	)
	a.Register(fs)
	fs.Uint64Var(&rc.Seed, "seed", 2005, "base RNG seed")
	fs.IntVar(&rc.Workers, "workers", runtime.GOMAXPROCS(0), "parallel trial workers (output is identical for any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if rc.Workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", rc.Workers)
	}
	studies := experiment.Select(*fig)
	if studies == nil {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	if *csv != "" && !slices.ContainsFunc(studies, func(s experiment.Study) bool { return s.CSV }) {
		return fmt.Errorf("-csv: -fig %s has no CSV form (those that have: %s)", *fig, experiment.CSVUsage())
	}

	// Profilers cover the full study run; Stop flushes them even when the
	// study itself fails, and a profile-write failure surfaces unless the
	// study already produced an error.
	if perr := profFlags.Start(); perr != nil {
		return perr
	}
	defer func() {
		if perr := profFlags.Stop(); err == nil {
			err = perr
		}
	}()

	var csvOut *os.File
	if *csv != "" {
		if csvOut, err = os.Create(*csv); err != nil {
			return err
		}
		defer func() {
			if cerr := csvOut.Close(); err == nil {
				err = cerr
			}
		}()
	}

	// With -spfstats each study is followed by the delta of the process-wide
	// SPF counters it consumed: full sweeps vs incremental delta repairs,
	// nodes settled, and cache hit/miss traffic. Off by default so the
	// blessed study outputs stay byte-stable.
	spfPrev := graph.SPFCounters()
	for _, s := range studies {
		rep, err := s.Run(ctx, rc, a)
		if err != nil {
			return err
		}
		fmt.Print(rep.Render())
		if *spfstats {
			now := graph.SPFCounters()
			d := now.Sub(spfPrev)
			spfPrev = now
			fmt.Printf("spfstats %s: full=%d delta=%d settled=%d hits=%d misses=%d\n",
				s.Name, d.FullRuns, d.DeltaRuns, d.NodesSettled, d.CacheHits, d.CacheMisses)
		}
		if c, ok := rep.(experiment.CSVReport); ok && csvOut != nil {
			if err := c.WriteCSV(csvOut); err != nil {
				return err
			}
		}
		// An oracle-gated study fails the run after its report is printed.
		if gated, ok := rep.(interface{ Err() error }); ok {
			if err := gated.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
