// Package metrics provides the statistics used by the evaluation harness:
// sample summaries with 95% confidence intervals (Student t), and the
// relative performance metrics defined in §4.2 of the paper.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptySample is returned by summaries of empty samples.
var ErrEmptySample = errors.New("metrics: empty sample")

// Sample accumulates float64 observations.
type Sample struct {
	values []float64
}

// Add appends one observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// AddAll appends many observations.
func (s *Sample) AddAll(vs ...float64) { s.values = append(s.values, vs...) }

// Merge appends all of other's observations to s, preserving their order.
// Concatenation is exactly associative, so merging per-worker samples in
// trial order reproduces the sequential accumulation bit-for-bit. A nil
// other is a no-op.
func (s *Sample) Merge(other *Sample) {
	if other == nil {
		return
	}
	s.values = append(s.values, other.values...)
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Sample) Variance() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (+Inf for an empty sample).
func (s *Sample) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.values {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation (−Inf for an empty sample).
func (s *Sample) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.values {
		if v > max {
			max = v
		}
	}
	return max
}

// tTable95 holds two-sided 95% Student-t critical values for small degrees
// of freedom; larger df fall back to the asymptotic normal value.
var tTable95 = []float64{
	// df:  1       2      3      4      5      6      7      8      9     10
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	// df: 11      12     13     14     15     16     17     18     19     20
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	// df: 21      22     23     24     25     26     27     28     29     30
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func tCritical95(df int) float64 {
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(tTable95):
		return tTable95[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// (0 for fewer than two observations).
func (s *Sample) CI95() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// Summary is a compact description of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	CI95 float64 // half-width of the 95% CI on the mean
	Min  float64
	Max  float64
}

// Summarize computes a Summary, erroring on empty samples.
func (s *Sample) Summarize() (Summary, error) {
	if len(s.values) == 0 {
		return Summary{}, ErrEmptySample
	}
	return Summary{
		N:    len(s.values),
		Mean: s.Mean(),
		Std:  s.StdDev(),
		CI95: s.CI95(),
		Min:  s.Min(),
		Max:  s.Max(),
	}, nil
}

// String renders the summary as "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean, s.CI95, s.N)
}

// RelativeRD computes RD^relative = (RD_SPF − RD_SMRP) / RD_SPF (§4.2):
// positive values mean SMRP's recovery path is shorter. It errors when the
// baseline distance is non-positive.
func RelativeRD(rdSPF, rdSMRP float64) (float64, error) {
	if rdSPF <= 0 {
		return 0, fmt.Errorf("metrics: RD_SPF = %v must be positive", rdSPF)
	}
	return (rdSPF - rdSMRP) / rdSPF, nil
}

// RelativeDelay computes D^relative = (D_SMRP − D_SPF) / D_SPF (§4.2):
// positive values are SMRP's delay penalty.
func RelativeDelay(dSPF, dSMRP float64) (float64, error) {
	if dSPF <= 0 {
		return 0, fmt.Errorf("metrics: D_SPF = %v must be positive", dSPF)
	}
	return (dSMRP - dSPF) / dSPF, nil
}

// RelativeCost computes Cost^relative = (Cost_SMRP − Cost_SPF) / Cost_SPF
// (§4.2): positive values are SMRP's tree-cost penalty.
func RelativeCost(cSPF, cSMRP float64) (float64, error) {
	if cSPF <= 0 {
		return 0, fmt.Errorf("metrics: Cost_SPF = %v must be positive", cSPF)
	}
	return (cSMRP - cSPF) / cSPF, nil
}
