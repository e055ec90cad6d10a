package core

import (
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// ChainOptions bundles the optional machinery a portfolio run threads into
// one chain. The zero value reproduces Schedule exactly.
type ChainOptions struct {
	// Evaluator is reusable objective scratch owned by the calling worker;
	// nil (or an evaluator bound to a different scenario) allocates a fresh
	// one. Reuse changes no arithmetic — each chain starts the evaluator's
	// tracked decision over — it only avoids the per-chain allocation.
	Evaluator *objective.Evaluator
	// Initial warm-starts the chain from a feasible decision instead of a
	// random one; it is cloned, never mutated.
	Initial *assign.Assignment
	// Targets, when non-empty, restricts every move's target user to this
	// set — the delta-epoch repair anneal's scoping. Swap partners and
	// displaced occupants stay unrestricted. Nil reproduces the
	// unrestricted draw sequence exactly.
	Targets []int
	// Config, when non-nil, overrides the solver's annealing configuration
	// for this chain only — the heterogeneous-portfolio hook that lets one
	// TTSA instance run slots with distinct cooling schedules and
	// neighbourhood mixes. The override is validated and applied to a value
	// copy of the solver, so the receiver is never mutated and concurrent
	// chains with different configs never interfere. Nil reproduces the
	// solver's own config exactly.
	Config *Config
}

// ScheduleChain runs one Algorithm 1 chain with the given portfolio
// machinery. With a nil Config the result is bit-identical to Schedule
// (nil Initial) or ScheduleFrom (non-nil Initial) on the same scenario and
// rng state.
func (t *TTSA) ScheduleChain(sc *scenario.Scenario, rng *simrand.Source, opts ChainOptions) (solver.Result, error) {
	if opts.Config != nil {
		var err error
		if t, err = t.WithConfig(*opts.Config); err != nil {
			return solver.Result{}, err
		}
	}
	res, _, err := t.runChain(sc, rng, false, opts)
	return res, err
}
