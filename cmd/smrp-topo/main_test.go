package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunGenerateAndDescribe(t *testing.T) {
	out := filepath.Join(t.TempDir(), "topo.json")
	if err := run([]string{"-n", "30", "-alpha", "0.3", "-seed", "5", "-json", out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("topology file missing: %v", err)
	}
	if err := run([]string{"-describe", out}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTransitStub(t *testing.T) {
	if err := run([]string{"-transit-stub", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-n", "1"}); err == nil {
		t.Error("tiny n should error")
	}
	if err := run([]string{"-describe", "/definitely/missing.json"}); err == nil {
		t.Error("missing file should error")
	}
	if err := run([]string{"-bogus-flag"}); err == nil {
		t.Error("bad flag should error")
	}
	// NaN fails every comparison, so a range check written as
	// alpha <= 0 || alpha > 1 would wire a spanning tree instead of refusing.
	for _, bad := range [][]string{{"-alpha", "NaN"}, {"-beta", "NaN"}} {
		if err := run(append([]string{"-n", "50"}, bad...)); err == nil {
			t.Errorf("%v should error", bad)
		}
	}
}
