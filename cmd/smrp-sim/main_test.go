package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smrp/internal/experiment"
)

var bg = context.Background()

func TestRunUnknownFigure(t *testing.T) {
	if err := run(bg, []string{"-fig", "nope"}); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run(bg, []string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag should error")
	}
}

// TestRunWorkersValidation rejects non-positive worker counts before any
// experiment starts.
func TestRunWorkersValidation(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		err := run(bg, []string{"-fig", "7", "-workers", w})
		if err == nil {
			t.Errorf("-workers %s should error", w)
			continue
		}
		if !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers %s: error %q should mention the flag", w, err)
		}
	}
}

// TestRunWorkersFlag executes a small experiment under an explicit worker
// count.
func TestRunWorkersFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	if err := run(bg, []string{"-fig", "nlevel", "-runs", "2", "-seed", "4", "-workers", "3"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFig7Small executes the smallest real experiment end to end,
// including CSV output.
func TestRunFig7Small(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	csv := filepath.Join(t.TempDir(), "out.csv")
	if err := run(bg, []string{"-fig", "7", "-seed", "3", "-csv", csv}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "global_rd,local_rd") {
		t.Errorf("csv = %q", string(data)[:40])
	}
}

func TestRunHierarchySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	if err := run(bg, []string{"-fig", "hierarchy", "-runs", "2", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFlagHandling pins the flag handling the study table fixes by
// construction: -fig matches in any letter case, "all" included; a halved
// ablations dimension of one stays one; -fig is validated before -csv
// creates anything, and -csv with a study that has no CSV form is an error
// naming the ones that have; an oracle gate refuses to pass on zero trials.
func TestRunFlagHandling(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs")
	}
	small := []string{"-topos", "1", "-sets", "1", "-runs", "2", "-workers", "2"}
	for _, args := range [][]string{
		append([]string{"-fig", "ALL"}, small...),
		append([]string{"-fig", "ablations"}, small...),
		append([]string{"-fig", "Degree10"}, small...),
	} {
		if err := run(bg, args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}

	csv := filepath.Join(t.TempDir(), "out.csv")
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-fig", "nope", "-csv", csv}, "unknown figure"},
		{[]string{"-fig", "latency", "-runs", "2", "-csv", csv}, "7, 8, 9, 10, degree10, ablations, all"},
		{[]string{"-fig", "chaos", "-trials", "0"}, "chaos: trials = 0 must be >= 1"},
		{[]string{"-fig", "strategies", "-trials", "0"}, "strategies: trials = 0 must be >= 1"},
		{[]string{"-fig", "megascale", "-sizes", "2000,x"}, "not a node count"},
	} {
		err := run(bg, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error = %v, want one containing %q", tc.args, err, tc.want)
		}
		if _, statErr := os.Stat(csv); statErr == nil {
			t.Errorf("%v: left %s behind", tc.args, csv)
			os.Remove(csv)
		}
	}

	// A CSV that cannot be written fails the run (the device accepts the
	// open and refuses every write).
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := run(bg, []string{"-fig", "7", "-csv", "/dev/full"}); err == nil {
			t.Error("-csv /dev/full: run succeeded, want the write error")
		}
	}
}

// TestPackageCommentListsEveryStudy keeps the hand-written package comment
// in step with the study table.
func TestPackageCommentListsEveryStudy(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	words := strings.FieldsFunc(doc, func(r rune) bool { return strings.ContainsRune(" ,.;()\n", r) })
	listed := map[string]bool{}
	for _, w := range words {
		listed[w] = true
	}
	for _, s := range experiment.Studies {
		if !listed[s.Name] {
			t.Errorf("package comment does not list -fig %s", s.Name)
		}
	}
}
