package analysis

import (
	"errors"
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
)

// syntheticTrace builds a hand-crafted trace with a known shape.
func syntheticTrace() []core.TracePoint {
	return []core.TracePoint{
		{Stage: 0, Temp: 3, Current: -5, Best: -5, Evaluations: 10},
		{Stage: 1, Temp: 2.7, Current: 2, Best: 2, Evaluations: 20, Accelerated: true},
		{Stage: 2, Temp: 2.43, Current: 7, Best: 8, Evaluations: 30},
		{Stage: 3, Temp: 2.19, Current: 8, Best: 9.95, Evaluations: 40},
		{Stage: 4, Temp: 1.97, Current: 9, Best: 10, Evaluations: 50},
	}
}

func TestSummarizeSynthetic(t *testing.T) {
	s, err := Summarize(syntheticTrace())
	if err != nil {
		t.Fatal(err)
	}
	if s.Stages != 5 || s.Evaluations != 50 || s.FinalBest != 10 {
		t.Errorf("summary = %+v", s)
	}
	if s.AcceleratedStages != 1 {
		t.Errorf("accelerated = %d", s.AcceleratedStages)
	}
	// 99% of 10 is 9.9, first reached at stage 3 (best 9.95).
	if s.StagesTo99 != 3 || s.EvaluationsTo99 != 40 {
		t.Errorf("99%% point: stage %d, evals %d", s.StagesTo99, s.EvaluationsTo99)
	}
	if math.Abs(s.TempRatio-3/1.97) > 1e-9 {
		t.Errorf("temp ratio = %g", s.TempRatio)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty trace summarized")
	}
}

func TestSummarizeNegativeFinal(t *testing.T) {
	trace := []core.TracePoint{{Stage: 0, Temp: 1, Best: -3, Evaluations: 5}}
	s, err := Summarize(trace)
	if err != nil {
		t.Fatal(err)
	}
	if s.StagesTo99 != -1 || s.EvaluationsTo99 != -1 {
		t.Errorf("99%% point defined for negative best: %+v", s)
	}
}

func TestEvaluationsToTarget(t *testing.T) {
	trace := syntheticTrace()
	evals, err := EvaluationsToTarget(trace, 8)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 30 {
		t.Errorf("evaluations to 8 = %d, want 30", evals)
	}
	if _, err := EvaluationsToTarget(trace, 11); !errors.Is(err, ErrTargetNotReached) {
		t.Errorf("unreachable target error = %v", err)
	}
}

func TestCompareSynthetic(t *testing.T) {
	fast := syntheticTrace()
	slow := []core.TracePoint{
		{Stage: 0, Best: 1, Evaluations: 100},
		{Stage: 1, Best: 9, Evaluations: 200},
		{Stage: 2, Best: 10, Evaluations: 300},
	}
	c, err := Compare(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	if c.Target != 10 {
		t.Errorf("target = %g", c.Target)
	}
	if c.EvaluationsA != 50 || c.EvaluationsB != 300 {
		t.Errorf("evaluations = %d vs %d", c.EvaluationsA, c.EvaluationsB)
	}
	if math.Abs(c.SpeedupFactor-6) > 1e-9 {
		t.Errorf("speedup = %g, want 6", c.SpeedupFactor)
	}
	if _, err := Compare(nil, slow); err == nil {
		t.Error("empty trace compared")
	}
}

// TestOnRealTrace sanity-checks the diagnostics on an actual TTSA run.
func TestOnRealTrace(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers = 12
	p.NumServers = 3
	p.NumChannels = 2
	p.Workload.WorkCycles = 2500e6
	p.Seed = 8
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	ts := core.NewDefault()
	res, trace, err := ts.ScheduleTrace(sc, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(trace)
	if err != nil {
		t.Fatal(err)
	}
	if s.FinalBest != res.Utility {
		t.Errorf("summary best %g != result %g", s.FinalBest, res.Utility)
	}
	if s.Evaluations != res.Evaluations {
		t.Errorf("summary evals %d != result %d", s.Evaluations, res.Evaluations)
	}
	if s.StagesTo99 < 0 || s.StagesTo99 >= s.Stages {
		t.Errorf("99%% stage = %d of %d", s.StagesTo99, s.Stages)
	}
	// Comparing a trace against itself is a unit speedup.
	c, err := Compare(trace, trace)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.SpeedupFactor-1) > 1e-9 {
		t.Errorf("self-comparison speedup = %g", c.SpeedupFactor)
	}
}
