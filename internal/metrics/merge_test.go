package metrics

import "testing"

func sampleOf(vs ...float64) *Sample {
	s := &Sample{}
	s.AddAll(vs...)
	return s
}

// TestSampleMergeAssociativity: (a⊕b)⊕c and a⊕(b⊕c) must agree exactly —
// concatenation is exactly associative, which is what lets per-worker
// samples reproduce sequential accumulation bit-for-bit.
func TestSampleMergeAssociativity(t *testing.T) {
	mk := func() (*Sample, *Sample, *Sample) {
		return sampleOf(1, 2, 3), sampleOf(4.5, -1), sampleOf(0.25, 9, 7, 11)
	}

	a1, b1, c1 := mk()
	left := &Sample{}
	left.Merge(a1)
	left.Merge(b1)
	left.Merge(c1) // (a ⊕ b) ⊕ c

	a2, b2, c2 := mk()
	bc := &Sample{}
	bc.Merge(b2)
	bc.Merge(c2)
	right := &Sample{}
	right.Merge(a2)
	right.Merge(bc) // a ⊕ (b ⊕ c)

	lv, rv := left.values, right.values
	if len(lv) != 9 || len(rv) != 9 {
		t.Fatalf("merged lengths = %d, %d, want 9", len(lv), len(rv))
	}
	for i := range lv {
		if lv[i] != rv[i] {
			t.Fatalf("position %d: %v != %v", i, lv[i], rv[i])
		}
	}
}

// TestSampleMergeMatchesSequential: merging per-worker samples in block
// order equals streaming every value into one sample.
func TestSampleMergeMatchesSequential(t *testing.T) {
	var seq Sample
	blocks := [][]float64{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	for _, b := range blocks {
		seq.AddAll(b...)
	}
	var merged Sample
	for _, b := range blocks {
		merged.Merge(sampleOf(b...))
	}
	ws, err := seq.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := merged.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if ws != ms {
		t.Errorf("summaries differ: %+v vs %+v", ws, ms)
	}
	if merged.Merge(nil); merged.N() != 9 {
		t.Error("nil merge must be a no-op")
	}
}
