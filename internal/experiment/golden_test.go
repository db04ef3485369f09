package experiment

import (
	"os"
	"strings"
	"testing"
)

const goldenPath = "testdata/studies_seed2005.golden"

// TestStudiesGolden renders every study of "-fig all" at a small size (seed
// 2005, one worker) and compares the bytes with the checked-in golden: the
// blessed output every refactor must leave unchanged. After an intended
// change of the numbers, SMRP_UPDATE_GOLDEN=1 rewrites the file.
func TestStudiesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full study runs")
	}
	const seed = 2005
	defer SetParallelism(0)
	SetParallelism(1)

	var b strings.Builder
	add := func(name string, r renderable, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString(r.Render())
	}
	r7, err := RunFig7(seed)
	add("7", r7, err)
	r8, err := RunFig8(2, 2, seed)
	add("8", r8, err)
	r9, err := RunFig9(2, 2, seed)
	add("9", r9, err)
	r10, err := RunFig10(2, 2, seed)
	add("10", r10, err)
	d10, err := RunDegree10(2, 2, seed)
	add("degree10", d10, err)
	la, err := RunLatency(3, seed)
	add("latency", la, err)
	hi, err := RunHierarchy(3, seed)
	add("hierarchy", hi, err)
	ab, err := RunAblations(1, 1, seed)
	add("ablations", ab, err)
	ch, err := RunChurn(3, seed)
	add("churn", ch, err)
	nl, err := RunNLevel(3, seed)
	add("nlevel", nl, err)
	pr, err := RunProtection(3, seed)
	add("protection", pr, err)
	got := b.String()

	if os.Getenv("SMRP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (SMRP_UPDATE_GOLDEN=1 go test -run TestStudiesGolden ./internal/experiment/ writes it)", err)
	}
	diffLines(t, "golden", string(want), "rendered", got)
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
