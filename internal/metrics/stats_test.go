package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Error("empty sample should be all zeros")
	}
	s.AddAll(2, 4, 4, 4, 5, 5, 7, 9)
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Known population: sample variance = 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSingleValueSample(t *testing.T) {
	var s Sample
	s.Add(3)
	if s.Mean() != 3 || s.StdDev() != 0 || s.CI95() != 0 {
		t.Errorf("single-value sample: mean=%v std=%v ci=%v", s.Mean(), s.StdDev(), s.CI95())
	}
}

func TestTCritical95(t *testing.T) {
	tests := []struct {
		df   int
		want float64
	}{
		{df: 1, want: 12.706},
		{df: 5, want: 2.571},
		{df: 30, want: 2.042},
		{df: 35, want: 2.021},
		{df: 50, want: 2.000},
		{df: 100, want: 1.980},
		{df: 1000, want: 1.960},
	}
	for _, tt := range tests {
		if got := tCritical95(tt.df); got != tt.want {
			t.Errorf("tCritical95(%d) = %v, want %v", tt.df, got, tt.want)
		}
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestCI95KnownValue(t *testing.T) {
	var s Sample
	s.AddAll(1, 2, 3, 4, 5)
	// std = sqrt(2.5), n = 5, df = 4 → t = 2.776.
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(s.CI95()-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestSummarize(t *testing.T) {
	var empty Sample
	if _, err := empty.Summarize(); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty Summarize err = %v", err)
	}
	var s Sample
	s.AddAll(1, 2, 3)
	sum, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 3 || sum.Mean != 2 || sum.Min != 1 || sum.Max != 3 {
		t.Errorf("Summary = %+v", sum)
	}
	if sum.String() == "" {
		t.Error("String should render")
	}
}

func TestRelativeMetrics(t *testing.T) {
	if v, err := RelativeRD(10, 8); err != nil || math.Abs(v-0.2) > 1e-12 {
		t.Errorf("RelativeRD = %v, %v", v, err)
	}
	if v, err := RelativeDelay(10, 10.5); err != nil || math.Abs(v-0.05) > 1e-12 {
		t.Errorf("RelativeDelay = %v, %v", v, err)
	}
	if v, err := RelativeCost(20, 21); err != nil || math.Abs(v-0.05) > 1e-12 {
		t.Errorf("RelativeCost = %v, %v", v, err)
	}
	for _, f := range []func(a, b float64) (float64, error){RelativeRD, RelativeDelay, RelativeCost} {
		if _, err := f(0, 1); err == nil {
			t.Error("zero baseline should error")
		}
		if _, err := f(-1, 1); err == nil {
			t.Error("negative baseline should error")
		}
	}
}

// TestMeanBoundsProperty property-checks Min ≤ Mean ≤ Max and CI ≥ 0.
func TestMeanBoundsProperty(t *testing.T) {
	prop := func(vs []float64) bool {
		var s Sample
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Keep magnitudes sane to avoid float overflow in variance.
			s.Add(math.Mod(v, 1e6))
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return s.Min() <= m+1e-6 && m <= s.Max()+1e-6 && s.CI95() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
