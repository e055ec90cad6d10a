package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %g/%g", s.Min, s.Max)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("stddev = %g, want %g", s.StdDev, want)
	}
	// CI95 = t(7) * sd / sqrt(8) with t(7) = 2.365.
	wantCI := 2.365 * want / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-9 {
		t.Errorf("CI95 = %g, want %g", s.CI95, wantCI)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3.5 || s.StdDev != 0 || s.CI95 != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty sample error = %v", err)
	}
}

func TestSummarizeConstantSample(t *testing.T) {
	s, err := Summarize([]float64{7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.StdDev != 0 || s.CI95 != 0 {
		t.Errorf("constant sample has spread: %+v", s)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
}

func TestTCritical95(t *testing.T) {
	tests := []struct {
		df   int
		want float64
	}{
		{df: 1, want: 12.706},
		{df: 9, want: 2.262},
		{df: 29, want: 2.045},
		{df: 30, want: 2.042},
		{df: 35, want: 2.021},
		{df: 50, want: 2.000},
		{df: 100, want: 1.980},
		{df: 10000, want: 1.960},
	}
	for _, tt := range tests {
		if got := tCritical95(tt.df); got != tt.want {
			t.Errorf("tCritical95(%d) = %g, want %g", tt.df, got, tt.want)
		}
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("tCritical95(0) should be NaN")
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.StdDev >= 0 && s.CI95 >= 0 && s.N == len(xs)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCI95ShrinksWithSampleSize(t *testing.T) {
	// Same spread, more samples: the CI half-width must shrink.
	small := []float64{1, 2, 3, 4}
	big := make([]float64, 0, 40)
	for i := 0; i < 10; i++ {
		big = append(big, small...)
	}
	sSmall, err := Summarize(small)
	if err != nil {
		t.Fatal(err)
	}
	sBig, err := Summarize(big)
	if err != nil {
		t.Fatal(err)
	}
	if sBig.CI95 >= sSmall.CI95 {
		t.Errorf("CI95 did not shrink: %g (n=40) vs %g (n=4)", sBig.CI95, sSmall.CI95)
	}
}
