// Package stats provides the descriptive statistics used by the experiment
// harness: mean, sample standard deviation, and the 95% confidence
// intervals the paper attaches to every figure's data points.
package stats

import (
	"errors"
	"math"
)

// Summary describes a sample of trial outcomes.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// CI95 is the half-width of the two-sided 95% confidence interval
	// for the mean (Student-t for the sample size).
	CI95 float64 `json:"ci95"`
}

// ErrEmptySample is returned when a summary is requested for no data.
var ErrEmptySample = errors.New("stats: empty sample")

// Summarize computes the summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmptySample
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
		s.CI95 = tCritical95(len(xs)-1) * s.StdDev / math.Sqrt(float64(len(xs)))
	}
	return s, nil
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. Values beyond the table converge to the normal
// quantile 1.960.
func tCritical95(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(table):
		return table[df-1]
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
