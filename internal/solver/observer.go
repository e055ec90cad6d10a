package solver

import "time"

// SolveStats is the per-solve telemetry an instrumented scheduler reports:
// search effort, move-acceptance balance, threshold-trigger activity, and
// the achieved utility. Instrumentation is strictly read-only — observers
// are invoked once per solve, after the result is final, consume no
// randomness, and therefore never change the returned decision.
type SolveStats struct {
	// Scheme is the scheduler name ("TSAJS", "TSAJS-P", ...).
	Scheme string
	// Stages is the number of temperature stages the walk ran;
	// AcceleratedStages of those ended with the threshold-triggered fast
	// cooling step (α₂).
	Stages            int
	AcceleratedStages int
	// Evaluations counts objective evaluations, matching Result.Evaluations.
	Evaluations int
	// AcceptedBetter / AcceptedWorse / Rejected partition the candidate
	// moves the annealer priced (degenerate moves that produced no
	// candidate are not counted).
	AcceptedBetter int
	AcceptedWorse  int
	Rejected       int
	// ElidedEvaluations counts the evaluations of the walk's frozen tail:
	// candidates counted in Evaluations and Rejected without being priced,
	// because a sweep of the neighbourhood had proved that none of them
	// could pass the Metropolis test.
	ElidedEvaluations int
	// Chains is the number of restarts merged into the result (1 for a
	// single-chain solve, K for a portfolio reduction).
	Chains int
	// Utility is the achieved system utility of the returned decision.
	Utility float64
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

// SolveObserver receives per-solve telemetry. Implementations must be safe
// for concurrent use: portfolio chains report from worker goroutines.
type SolveObserver interface {
	ObserveSolve(SolveStats)
}
