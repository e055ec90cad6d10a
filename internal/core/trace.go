package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// TracePoint records the annealing state at the end of one temperature
// stage, for convergence analysis and suboptimality plots.
type TracePoint struct {
	// Stage is the temperature-stage index (0-based).
	Stage int `json:"stage"`
	// Temp is the temperature during the stage.
	Temp float64 `json:"temp"`
	// Current is the utility of the walking solution after the stage.
	Current float64 `json:"current"`
	// Best is the best utility seen so far.
	Best float64 `json:"best"`
	// Evaluations is the cumulative objective-evaluation count.
	Evaluations int `json:"evaluations"`
	// Accelerated reports whether this stage ended with the
	// threshold-triggered fast cooling step (α₂ instead of α₁).
	Accelerated bool `json:"accelerated"`
}

// ScheduleTrace runs Algorithm 1 exactly like Schedule but additionally
// records one TracePoint per temperature stage. Given the same scenario
// and rng state it returns the identical result.
func (t *TTSA) ScheduleTrace(sc *scenario.Scenario, rng *simrand.Source) (solver.Result, []TracePoint, error) {
	return t.runChain(sc, rng, true, ChainOptions{})
}

// ScheduleFrom runs Algorithm 1 warm-started from the given feasible
// decision instead of a random one. This is the natural mode for
// re-optimizing a running system after incremental change (users moved,
// tasks arrived or completed): the previous epoch's decision is usually
// close to a good one, so the walk starts in a deep basin. The initial
// decision is not mutated.
func (t *TTSA) ScheduleFrom(sc *scenario.Scenario, rng *simrand.Source, initial *assign.Assignment) (solver.Result, error) {
	if initial == nil {
		return solver.Result{}, errors.New("core: nil warm-start decision")
	}
	if err := checkInitial(sc, initial, "warm start"); err != nil {
		return solver.Result{}, err
	}
	res, _, err := t.runChain(sc, rng, false, ChainOptions{Initial: initial})
	return res, err
}

// checkInitial checks that a warm-start or repair decision is valid and
// shaped like the scenario; what names the decision in the error.
func checkInitial(sc *scenario.Scenario, initial *assign.Assignment, what string) error {
	if err := initial.Validate(); err != nil {
		return fmt.Errorf("core: %s: %w", what, err)
	}
	if initial.Users() != sc.U() || initial.Servers() != sc.S() || initial.Channels() != sc.N() {
		return fmt.Errorf("core: %s dimensions (%d,%d,%d) do not match scenario (%d,%d,%d)",
			what, initial.Users(), initial.Servers(), initial.Channels(), sc.U(), sc.S(), sc.N())
	}
	return nil
}

// runChain is the single implementation of Algorithm 1 behind every
// Schedule* method, with the portfolio machinery of ChainOptions: an
// optional reusable evaluator, warm start and target scoping.
func (t *TTSA) runChain(sc *scenario.Scenario, rng *simrand.Source, withTrace bool, opts ChainOptions) (solver.Result, []TracePoint, error) {
	started := time.Now()
	eval := opts.Evaluator
	if eval == nil || eval.Scenario() != sc {
		eval = objective.New(sc)
	}

	var cur *assign.Assignment
	if initial := opts.Initial; initial != nil {
		cur = initial.Clone()
	} else {
		var err error
		cur, err = solver.RandomFeasible(sc, rng, t.cfg.InitOffloadProb)
		if err != nil {
			return solver.Result{}, nil, fmt.Errorf("core: initial solution: %w", err)
		}
	}
	// Every candidate is cur after one move, priced by re-pricing only the
	// users the move's undo record names: bit for bit SystemUtility.
	var undo Undo
	inc := eval.Track(cur)
	preview := func(cand *assign.Assignment) float64 { return inc.PreviewMoved(cand, undo.Users()) }
	curJ := inc.Utility()
	best := cur.Clone()
	bestJ := curJ

	temp := t.cfg.InitialTemp
	if temp == 0 {
		temp = float64(sc.N())
	}
	if temp <= t.cfg.MinTemp {
		temp = t.cfg.MinTemp * 10
	}
	maxCount := t.cfg.ThresholdFactor * float64(t.cfg.InnerIterations)
	moves := NeighborhoodFor(t.cfg)
	moves.targets = opts.Targets
	count := 0
	evaluations := 1
	var trace []TracePoint

	// Frozen-tail elision: once a sweep of the move superset from the
	// current decision (Neighborhood.bestDelta) finds no delta whose
	// Metropolis weight survives exp's underflow, no later candidate can be
	// accepted, so the tail stops pricing them. Every other step — the
	// move, the evaluation count, the acceptance draw, the revert — still
	// runs, keeping the result, the stats and the rng position identical.
	// A sweep runs at most once per accepted state, only after a stage in
	// which every priced candidate already underflowed, and only while the
	// budget left covers sweepMargin sweeps.
	cold := true     // every candidate priced this stage underflowed
	swept := false   // bestSwept prices the current decision
	bestSwept := 0.0 // the sweep's best delta
	frozen := false  // no candidate can be accepted any more

	// Solve-level telemetry for the optional observer: plain local counters
	// on the walk's own control flow, reported once after the final result
	// is packaged, so instrumentation never perturbs the search.
	var tele solver.SolveStats
	finish := func(stages int) solver.Result {
		res := solver.Finish(t.Name(), eval, best, evaluations, started)
		if t.obs != nil {
			tele.Scheme = t.Name()
			tele.Stages = stages
			tele.Evaluations = res.Evaluations
			tele.Chains = 1
			tele.Utility = res.Utility
			tele.Elapsed = res.Elapsed
			t.obs.ObserveSolve(tele)
		}
		return res
	}

	for stage := 0; temp > t.cfg.MinTemp; stage++ {
		for i := 0; i < t.cfg.InnerIterations; i++ {
			if t.cfg.MaxEvaluations > 0 && evaluations >= t.cfg.MaxEvaluations {
				return finish(stage), trace, nil
			}
			if !moves.Apply(cur, rng, &undo) {
				continue // degenerate move; retry next iteration
			}
			evaluations++
			if frozen {
				rng.Float64() // the Metropolis draw the candidate would fail
				if err := undo.Revert(cur); err != nil {
					return solver.Result{}, nil, err
				}
				tele.Rejected++
				tele.ElidedEvaluations++
				continue
			}
			candJ := preview(cur)
			delta := candJ - curJ
			cold = cold && delta/temp < expUnderflow
			switch {
			case delta > 0:
				tele.AcceptedBetter++
			case math.Exp(delta/temp) > rng.Float64():
				count++
				tele.AcceptedWorse++
			default:
				if err := undo.Revert(cur); err != nil {
					return solver.Result{}, nil, err
				}
				tele.Rejected++
				continue
			}
			inc.Accept(cur)
			curJ = candJ
			swept = false // the sweep priced the previous decision
			if curJ > bestJ {
				if err := best.CopyFrom(cur); err != nil {
					return solver.Result{}, nil, fmt.Errorf("core: %w", err)
				}
				bestJ = curJ
			}
		}
		accelerated := !t.cfg.DisableThreshold && float64(count) >= maxCount
		if withTrace {
			trace = append(trace, TracePoint{
				Stage:       stage,
				Temp:        temp,
				Current:     curJ,
				Best:        bestJ,
				Evaluations: evaluations,
				Accelerated: accelerated,
			})
		}
		if accelerated {
			temp *= t.cfg.CoolFast
			count = 0
			tele.AcceleratedStages++
		} else {
			temp *= t.cfg.CoolNormal
		}
		tele.Stages = stage + 1
		if cold && !frozen && !swept && (t.cfg.MaxEvaluations == 0 ||
			t.cfg.MaxEvaluations-evaluations >= sweepMargin*moves.sweepSize(cur)) {
			var err error
			if bestSwept, err = moves.bestDelta(cur, &undo, preview, curJ); err != nil {
				return solver.Result{}, nil, err
			}
			swept = true
		}
		frozen = frozen || (swept && bestSwept/temp < expUnderflow)
		cold = true
	}
	return finish(tele.Stages), trace, nil
}
