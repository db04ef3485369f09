package main

import (
	"strings"
	"testing"
)

func TestRunSMRPTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	if err := run([]string{"-n", "40", "-members", "4", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSPFTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	if err := run([]string{"-n", "40", "-members", "4", "-seed", "9", "-protocol", "spf"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-protocol", "bogus"}); err == nil {
		t.Error("unknown protocol should error")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("bad flag should error")
	}
	// Group sizes outside [1, n) are refused before a topology is drawn.
	for _, args := range [][]string{
		{"-members", "0"},
		{"-members", "100", "-n", "60"},
		{"-members", "-3"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "out of [1, N)") {
			t.Errorf("run(%q) = %v, want the group size refused", args, err)
		}
	}
}
