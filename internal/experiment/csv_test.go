package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestSweepWriteCSV(t *testing.T) {
	res, err := RunFig8(bg, RunConfig{Seed: 5}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(Fig8DThreshValues) {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "D_thresh,rd_rel_mean") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestFig7WriteCSV(t *testing.T) {
	res := &Fig7Result{Points: []Fig7Point{{Global: 2, Local: 1}, {Global: 3, Local: 2.5}}}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "global_rd,local_rd\n2,1\n3,2.5\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestAblationWriteCSV(t *testing.T) {
	res := &AblationResult{Rows: []AblationRow{{Name: "x"}}}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "variant,rd_rel_mean") || !strings.Contains(buf.String(), "\nx,") {
		t.Errorf("csv = %q", buf.String())
	}
}
