package experiment

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"smrp/internal/runner"
)

// RunConfig is how a study executes: the seed every trial's RNG stream is
// derived from and the size of the worker pool the trials run on. A study's
// output depends on Seed alone — trials fold in trial order, so it is
// byte-identical for every worker count.
type RunConfig struct {
	// Seed is the base RNG seed.
	Seed uint64
	// Workers is the pool size; values < 1 select runtime.GOMAXPROCS(0).
	Workers int
}

// pool is the runner configuration of one study sweep.
func (rc RunConfig) pool() runner.Config {
	return runner.Config{Workers: rc.Workers, BaseSeed: rc.Seed}
}

// Args are the size arguments of every study, one field per cmd/smrp-sim
// flag; a study reads the ones it takes.
type Args struct {
	Topos, Sets int // random topologies per sweep point, member sets per topology
	Runs        int // latency, hierarchy, churn, nlevel, protection
	Trials      int // chaos, strategies
	Sessions    int // throughput

	Sizes    []int // megascale network sizes; empty selects DefaultMegascaleSizes
	Groups   int   // megascale receivers per arm
	HierOnly bool  // megascale: skip the flat control arm

	MGroups, MGSize, MGNodes int // multigroup: groups, rank-0 group size, topology size
}

// Register declares one flag per field on fs, with smrp-sim's defaults.
func (a *Args) Register(fs *flag.FlagSet) {
	fs.IntVar(&a.Topos, "topos", 10, "random topologies per sweep point")
	fs.IntVar(&a.Sets, "sets", 10, "member sets per topology")
	fs.IntVar(&a.Runs, "runs", 10, "runs for the latency/hierarchy/churn/nlevel/protection studies")
	fs.IntVar(&a.Trials, "trials", 200, "seeded failure schedules for the chaos and strategies studies")
	fs.IntVar(&a.Sessions, "sessions", 10, "concurrent sessions for the throughput study")
	fs.Func("sizes", "comma-separated network sizes for the megascale study (default 10000,50000,100000)",
		func(s string) (err error) { a.Sizes, err = parseSizes(s); return err })
	fs.IntVar(&a.Groups, "groups", 32, "receivers per arm in the megascale study")
	fs.BoolVar(&a.HierOnly, "hieronly", false, "megascale study: skip the flat control arm (admits sizes up to 1000000)")
	fs.IntVar(&a.MGroups, "mgroups", DefaultMultigroupGroups, "concurrent groups for the multigroup study")
	fs.IntVar(&a.MGSize, "mgsize", DefaultMultigroupMax, "largest (rank-0) group size on the multigroup Zipf profile")
	fs.IntVar(&a.MGNodes, "mgnodes", DefaultMultigroupNodes, "shared-topology size for the multigroup study")
}

// parseSizes parses a comma-separated list of node counts.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("%q is not a node count", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

// Report is a study's result: it renders to the human-readable report. A
// report that also has a machine-readable form is a CSVReport, and one whose
// study checks an oracle has an Err() error method that is non-nil when the
// oracle found violations.
type Report interface{ Render() string }

// CSVReport is a Report that can also be written as CSV.
type CSVReport interface {
	Report
	WriteCSV(io.Writer) error
}

// Study is one row of the study table.
type Study struct {
	// Name is the study as -fig takes it (matched case-insensitively).
	Name string
	// InAll reports whether "-fig all" includes the study; the others run
	// only when named, which keeps the blessed "all" output stable.
	InAll bool
	// CSV reports whether the study's report is a CSVReport.
	CSV bool
	// Run executes the study on the arguments it takes from a.
	Run func(ctx context.Context, rc RunConfig, a Args) (Report, error)
}

// study builds a table row from a typed entry point: CSV follows from the
// result type, and a failed run yields a nil Report rather than a typed nil.
func study[R Report](name string, inAll bool, run func(context.Context, RunConfig, Args) (R, error)) Study {
	var zero R
	_, csv := any(zero).(CSVReport)
	return Study{Name: name, InAll: inAll, CSV: csv, Run: func(ctx context.Context, rc RunConfig, a Args) (Report, error) {
		r, err := run(ctx, rc, a)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// sweepStudy is the row of a Figure 8–10-style sweep over Topos × Sets.
func sweepStudy(name string, run func(context.Context, RunConfig, int, int) (*SweepResult, error)) Study {
	return study(name, true, func(ctx context.Context, rc RunConfig, a Args) (*SweepResult, error) {
		return run(ctx, rc, a.Topos, a.Sets)
	})
}

// runsStudy is the row of a study sized by Runs alone.
func runsStudy[R Report](name string, run func(context.Context, RunConfig, int) (R, error)) Study {
	return study(name, true, func(ctx context.Context, rc RunConfig, a Args) (R, error) {
		return run(ctx, rc, a.Runs)
	})
}

// half is the ablations' share of a sweep dimension: n/2, but a dimension
// of one stays one (zero and negative sizes stay invalid).
func half(n int) int { return max(min(n, 1), n/2) }

// Studies is the study table, in the order "-fig all" runs it: the paper's
// evaluation (§4.3) first, then the repository's extension studies, then
// the harnesses that run only when named. cmd/smrp-sim, the bench summary,
// the golden and the worker-count determinism gate all iterate it, so a new
// row is under every one of them.
var Studies = []Study{
	study("7", true, func(ctx context.Context, rc RunConfig, _ Args) (*Fig7Result, error) {
		return RunFig7(ctx, rc)
	}),
	sweepStudy("8", RunFig8),
	sweepStudy("9", RunFig9),
	sweepStudy("10", RunFig10),
	sweepStudy("degree10", RunDegree10),
	runsStudy("latency", RunLatency),
	runsStudy("hierarchy", RunHierarchy),
	// The six ablation variants run on a quarter of a sweep's scenarios.
	study("ablations", true, func(ctx context.Context, rc RunConfig, a Args) (*AblationResult, error) {
		return RunAblations(ctx, rc, half(a.Topos), half(a.Sets))
	}),
	runsStudy("churn", RunChurn),
	runsStudy("nlevel", RunNLevel),
	runsStudy("protection", RunProtection),
	study("throughput", false, func(ctx context.Context, rc RunConfig, a Args) (*ThroughputResult, error) {
		return RunThroughput(ctx, rc, a.Sessions)
	}),
	study("megascale", false, func(ctx context.Context, rc RunConfig, a Args) (*MegascaleResult, error) {
		return RunMegascale(ctx, rc, a.Sizes, a.Groups, a.HierOnly)
	}),
	study("multigroup", false, func(ctx context.Context, rc RunConfig, a Args) (*MultigroupResult, error) {
		return RunMultigroup(ctx, rc, a.MGroups, a.MGSize, a.MGNodes)
	}),
	study("chaos", false, func(ctx context.Context, rc RunConfig, a Args) (*ChaosResult, error) {
		return RunChaos(ctx, rc, a.Trials)
	}),
	study("strategies", false, func(ctx context.Context, rc RunConfig, a Args) (*StrategiesResult, error) {
		return RunStrategies(ctx, rc, a.Trials)
	}),
}

// Select returns the studies -fig name asks for — the InAll rows for "all",
// else the one row of that name — or nil when there is no such study.
func Select(name string) []Study {
	var out []Study
	all := strings.EqualFold(name, "all")
	for _, s := range Studies {
		if (all && s.InAll) || strings.EqualFold(name, s.Name) {
			out = append(out, s)
		}
	}
	return out
}

// names joins the names of the rows keep accepts, in table order.
func names(sep string, keep func(Study) bool) string {
	var out []string
	for _, s := range Studies {
		if keep(s) {
			out = append(out, s.Name)
		}
	}
	return strings.Join(out, sep)
}

// FigUsage is the value list of -fig: every study, "all", and which studies
// "all" leaves out.
func FigUsage() string {
	return names("|", func(Study) bool { return true }) + "|all (" +
		names(", ", func(s Study) bool { return !s.InAll }) + " run only when named)"
}

// CSVUsage lists the -fig values that can write CSV.
func CSVUsage() string { return names(", ", func(s Study) bool { return s.CSV }) + ", all" }

// renderViolations is the closing block of an oracle-gated report: the
// count of violations of its kind, then the first ten.
func renderViolations(b *strings.Builder, kind string, violations []string) {
	fmt.Fprintf(b, "  %s violations: %d\n", kind, len(violations))
	for i, v := range violations {
		if i == 10 {
			fmt.Fprintf(b, "    … %d more\n", len(violations)-10)
			break
		}
		fmt.Fprintf(b, "    %s\n", v)
	}
}

// violationsErr is the Err() of such a report: nil on a clean run.
func violationsErr(study, kind string, violations []string) error {
	if len(violations) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d %s violations", study, len(violations), kind)
}
