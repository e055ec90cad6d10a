// Package analysis provides convergence diagnostics over TTSA traces: how
// fast the search reaches a utility target, how much of the schedule the
// threshold trigger accelerated, and side-by-side comparisons between
// configurations. It backs the convergence example and the tuning guidance
// in EXPERIMENTS.md.
package analysis

import (
	"errors"
	"fmt"
	"math"

	"github.com/tsajs/tsajs/internal/core"
)

// ErrTargetNotReached reports that a trace never attained the target.
var ErrTargetNotReached = errors.New("analysis: target utility not reached")

// Summary condenses one annealing trace.
type Summary struct {
	// Stages is the number of temperature stages.
	Stages int `json:"stages"`
	// Evaluations is the total objective-evaluation count.
	Evaluations int `json:"evaluations"`
	// FinalBest is the best utility at the end of the schedule.
	FinalBest float64 `json:"finalBest"`
	// AcceleratedStages counts threshold-triggered fast-cooling stages.
	AcceleratedStages int `json:"acceleratedStages"`
	// StagesTo99 is the stage index at which the best first reached 99%
	// of its final value (-1 when the final best is not positive).
	StagesTo99 int `json:"stagesTo99"`
	// EvaluationsTo99 is the evaluation count at that stage.
	EvaluationsTo99 int `json:"evaluationsTo99"`
	// TempRatio is firstTemp/lastTemp, the dynamic range of the ladder.
	TempRatio float64 `json:"tempRatio"`
}

// Summarize condenses a trace. The trace must be non-empty.
func Summarize(trace []core.TracePoint) (Summary, error) {
	if len(trace) == 0 {
		return Summary{}, errors.New("analysis: empty trace")
	}
	last := trace[len(trace)-1]
	s := Summary{
		Stages:          len(trace),
		Evaluations:     last.Evaluations,
		FinalBest:       last.Best,
		StagesTo99:      -1,
		EvaluationsTo99: -1,
	}
	for _, pt := range trace {
		if pt.Accelerated {
			s.AcceleratedStages++
		}
	}
	if last.Best > 0 {
		target := 0.99 * last.Best
		for _, pt := range trace {
			if pt.Best >= target {
				s.StagesTo99 = pt.Stage
				s.EvaluationsTo99 = pt.Evaluations
				break
			}
		}
	}
	if last.Temp > 0 {
		s.TempRatio = trace[0].Temp / last.Temp
	}
	return s, nil
}

// EvaluationsToTarget returns the evaluation count at which the trace's
// best utility first reached target.
func EvaluationsToTarget(trace []core.TracePoint, target float64) (int, error) {
	for _, pt := range trace {
		if pt.Best >= target {
			return pt.Evaluations, nil
		}
	}
	return 0, fmt.Errorf("%w: target %g, best %g", ErrTargetNotReached, target, finalBest(trace))
}

// Compare reports how much faster (in evaluations) trace a reaches the
// weaker of the two final bests, versus trace b. Positive speedup means a
// was faster.
type Comparison struct {
	Target        float64 `json:"target"`
	EvaluationsA  int     `json:"evaluationsA"`
	EvaluationsB  int     `json:"evaluationsB"`
	SpeedupFactor float64 `json:"speedupFactor"`
}

// Compare evaluates both traces against the weaker final best (so both
// provably reach the target).
func Compare(a, b []core.TracePoint) (Comparison, error) {
	if len(a) == 0 || len(b) == 0 {
		return Comparison{}, errors.New("analysis: empty trace")
	}
	target := math.Min(finalBest(a), finalBest(b))
	ea, err := EvaluationsToTarget(a, target)
	if err != nil {
		return Comparison{}, err
	}
	eb, err := EvaluationsToTarget(b, target)
	if err != nil {
		return Comparison{}, err
	}
	c := Comparison{Target: target, EvaluationsA: ea, EvaluationsB: eb}
	if ea > 0 {
		c.SpeedupFactor = float64(eb) / float64(ea)
	}
	return c, nil
}

func finalBest(trace []core.TracePoint) float64 {
	return trace[len(trace)-1].Best
}
