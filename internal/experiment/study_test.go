package experiment

import (
	"context"
	"os"
	"strings"
	"testing"
)

var bg = context.Background()

// testSeed is the seed the reported numbers are generated with.
const testSeed = 2005

// smallArgs sizes every study for the table-driven tests: large enough that
// each exercises its machinery, small enough to run on every `go test`. A
// new study reads its size from here (a zero size is an error).
func smallArgs() Args {
	a := Args{
		Topos: 2, Sets: 2, Runs: 3,
		Trials: 200, Sessions: 10,
		Sizes: []int{1000, 2000}, Groups: 8,
		MGroups: 60, MGSize: 16, MGNodes: 2000,
	}
	if testing.Short() {
		a.Trials, a.Sessions = 15, 3
	}
	return a
}

// diffLines fails the test at the first line on which a and b differ.
func diffLines(t *testing.T, aName, a, bName, b string) {
	t.Helper()
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Fatalf("%s and %s diverge at line %d:\n  %s: %q\n  %s: %q", aName, bName, i+1, aName, al[i], bName, bl[i])
		}
	}
	t.Fatalf("%s and %s differ in length: %d vs %d lines", aName, bName, len(al), len(bl))
}

// TestStudyTable pins the table's shape: names are distinct in any letter
// case and none shadows "all", "-fig all" runs exactly the blessed list in
// the blessed order, every name is in the generated -fig help, and the CSV
// column agrees with the report each study returns.
func TestStudyTable(t *testing.T) {
	seen := map[string]bool{"all": true}
	var all []string
	for _, s := range Studies {
		key := strings.ToLower(s.Name)
		if seen[key] {
			t.Errorf("study name %q is taken (names match case-insensitively)", s.Name)
		}
		seen[key] = true
		if s.InAll {
			all = append(all, s.Name)
		}
		if !strings.Contains("|"+FigUsage(), "|"+s.Name+"|") {
			t.Errorf("study %q missing from -fig help %q", s.Name, FigUsage())
		}
		if got := Select(strings.ToUpper(s.Name)); len(got) != 1 || got[0].Name != s.Name {
			t.Errorf("Select(%q) = %v, want the one row", strings.ToUpper(s.Name), got)
		}
	}
	const wantAll = "7 8 9 10 degree10 latency hierarchy ablations churn nlevel protection"
	if got := strings.Join(all, " "); got != wantAll {
		t.Errorf("-fig all runs %q, want %q", got, wantAll)
	}
	var selected []string
	for _, s := range Select("ALL") {
		selected = append(selected, s.Name)
	}
	if got := strings.Join(selected, " "); got != wantAll {
		t.Errorf("Select(\"ALL\") = %q, want %q", got, wantAll)
	}
	if got := Select("nope"); got != nil {
		t.Errorf("Select(\"nope\") = %v, want nil", got)
	}
	if got, want := CSVUsage(), "7, 8, 9, 10, degree10, ablations, all"; got != want {
		t.Errorf("CSV-capable studies = %q, want %q", got, want)
	}
}

// TestStudiesRejectZeroSizes: a study asked for nothing must say so, not
// render an empty report — an oracle gate that ran zero schedules would
// otherwise pass on nothing. Figure 7 is the one study with no size.
func TestStudiesRejectZeroSizes(t *testing.T) {
	for _, s := range Studies {
		if s.Name == "7" {
			continue
		}
		rep, err := s.Run(bg, RunConfig{Seed: testSeed}, Args{})
		if err == nil {
			t.Errorf("%s: zero-size arguments rendered %q, want an error", s.Name, rep.Render())
		} else if rep != nil {
			t.Errorf("%s: error %v came with a report", s.Name, err)
		}
	}
	for _, name := range []string{"chaos", "strategies"} {
		want := "experiment: " + name + ": trials = 0 must be >= 1"
		if _, err := Select(name)[0].Run(bg, RunConfig{}, Args{}); err == nil || err.Error() != want {
			t.Errorf("%s: trials=0 error = %v, want %q", name, err, want)
		}
	}
}

// TestStudiesGolden renders every study of "-fig all" at smallArgs (seed
// 2005, one worker), then the chaos and strategies studies, which run only
// when named, at 60 trials, and compares the bytes with the checked-in
// golden: the blessed output every refactor must leave unchanged. After an
// intended change of the numbers, SMRP_UPDATE_GOLDEN=1 rewrites the file.
func TestStudiesGolden(t *testing.T) {
	const path = "testdata/studies_seed2005.golden"
	named := smallArgs()
	named.Trials = 60 // under -short too: the golden holds one size
	var b strings.Builder
	for _, run := range []struct {
		fig  string
		args Args
	}{{"all", smallArgs()}, {"chaos", named}, {"strategies", named}} {
		for _, s := range Select(run.fig) {
			rep, err := s.Run(bg, RunConfig{Seed: testSeed, Workers: 1}, run.args)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			b.WriteString(rep.Render())
		}
	}
	if os.Getenv("SMRP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (SMRP_UPDATE_GOLDEN=1 go test -run TestStudiesGolden ./internal/experiment/ writes it)", err)
	}
	diffLines(t, "golden", string(want), "rendered", b.String())
}

// TestStudiesDeterministicAcrossWorkerCounts is the regression guard for the
// parallel runner, once for every row of the table: a study must render
// byte-identical output for the same seed whether its trials run on one
// worker or eight. Trials derive their RNG streams from (seed, trial index)
// alone and results fold in trial order, so scheduling — and the SPF cache
// the trials of some studies share — must never leak into the numbers. An
// oracle-gated study must also come out clean.
func TestStudiesDeterministicAcrossWorkerCounts(t *testing.T) {
	type row struct {
		name string
		s    Study
		a    Args
	}
	var rows []row
	for _, s := range Studies {
		rows = append(rows, row{s.Name, s, smallArgs()})
	}
	// The tier the N=10⁶ CI run uses has its own trial layout.
	hier := smallArgs()
	hier.Sizes, hier.Groups, hier.HierOnly = []int{2000, 8000}, 16, true
	rows = append(rows, row{"megascale-hieronly", Select("megascale")[0], hier})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			render := func(workers int) string {
				rep, err := r.s.Run(bg, RunConfig{Seed: testSeed, Workers: workers}, r.a)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if gated, ok := rep.(interface{ Err() error }); ok && gated.Err() != nil {
					t.Errorf("workers=%d: %v\n%s", workers, gated.Err(), rep.Render())
				}
				return rep.Render()
			}
			diffLines(t, "workers=1", render(1), "workers=8", render(8))
		})
	}
}

// TestSweepEnumeratorDeterministicSeed2005 repeats the worker-count gate at
// the size the bench summary runs the two studies that lean hardest on the
// absorbing-sweep candidate enumerator (fig8 joins, churn join/leave/reshape
// cycles): 25 scenarios a sweep point instead of the gate's 4 give the
// scheduler far more room to leak into the published numbers.
func TestSweepEnumeratorDeterministicSeed2005(t *testing.T) {
	if testing.Short() {
		t.Skip("full study runs")
	}
	render := func(workers int) string {
		rc := RunConfig{Seed: testSeed, Workers: workers}
		f8, err := RunFig8(bg, rc, 5, 5)
		if err != nil {
			t.Fatalf("fig8: %v", err)
		}
		ch, err := RunChurn(bg, rc, 5)
		if err != nil {
			t.Fatalf("churn: %v", err)
		}
		return f8.Render() + ch.Render()
	}
	diffLines(t, "workers=1", render(1), "workers=8", render(8))
}
