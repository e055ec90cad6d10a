package solver

import (
	"fmt"
	"runtime"
)

// PortfolioOptions configures the parallel multi-restart portfolio on the
// public solve path: K independent chains of a stochastic scheduler run
// concurrently and their results are merged by a deterministic reduction
// (chain-index order, ties broken by the lower chain index), so the merged
// output is bit-identical regardless of worker count or goroutine
// scheduling. The type lives in the solver package so every consumer of
// the Scheduler contract (experiments, the dynamic replay, the CLIs, the
// facade) shares one options vocabulary without importing the portfolio
// implementation.
type PortfolioOptions struct {
	// Chains is K, the number of independent restarts. 0 and 1 both mean a
	// single chain.
	Chains int `json:"chains"`
	// Workers bounds concurrently running chains; 0 means GOMAXPROCS. The
	// worker count affects wall-clock time only, never the merged result.
	Workers int `json:"workers,omitempty"`
	// Members names the heterogeneous member roster chain slots draw from
	// (the portfolio package defines the vocabulary: "ttsa", "ttsa-fast",
	// "ttsa-wide", "attract", "hjtora", "greedy", "cheap"). Slot i runs
	// member i mod len(Members) in fixed mode. Empty means K identical
	// chains of the base scheduler — the historical portfolio, bit-identical
	// to pre-roster builds — unless Adaptive is set, in which case the
	// portfolio package's default roster applies.
	Members []string `json:"members,omitempty"`
	// Adaptive turns on the online bandit selector: each solve's chain
	// slots are allocated across the member roster by a deterministic UCB
	// policy fed by the normalized utilities of earlier solves, instead of
	// the static round-robin of fixed mode. The allocation is a pure
	// function of (seed, epoch, telemetry prefix), so adaptive runs are
	// reproducible per seed and worker count — but they are NOT
	// bit-identical to fixed-mode runs, which remain the reproducibility
	// default.
	Adaptive bool `json:"adaptive,omitempty"`
}

// MemberOutcome is one chain slot's result within a portfolio solve: which
// member ran the slot, the utility its decision reached under the
// reduction's fresh evaluator, the search effort spent, and whether the
// slot won the reduction. Utility, Evaluations, and Won are deterministic
// per seed; ElapsedMs is wall clock and feeds telemetry only — the
// adaptive selector's policy deliberately never reads it.
type MemberOutcome struct {
	// Slot is the chain index within the solve's plan.
	Slot int `json:"slot"`
	// Member is the roster member name that ran the slot.
	Member string `json:"member"`
	// Utility is the slot's decision utility under the reduction evaluator.
	Utility float64 `json:"utility"`
	// Evaluations counts the slot's objective evaluations.
	Evaluations int `json:"evaluations"`
	// ElapsedMs is the slot's wall-clock solve time in milliseconds.
	ElapsedMs float64 `json:"elapsedMs"`
	// Won marks the slot the deterministic reduction selected.
	Won bool `json:"won"`
}

// MemberObserver receives the per-member outcomes of each portfolio solve.
// Observation is passive: implementations must not mutate the outcomes,
// and attaching an observer never changes the merged result.
type MemberObserver interface {
	ObserveMembers(outcomes []MemberOutcome)
}

// MemberTotal aggregates one member's outcomes across a run: how many
// chain slots it was allocated, how many solves it won, and the search
// effort and wall time it consumed.
type MemberTotal struct {
	Member      string  `json:"member"`
	Slots       uint64  `json:"slots"`
	Wins        uint64  `json:"wins"`
	Evaluations uint64  `json:"evaluations"`
	BudgetMs    float64 `json:"budgetMs"`
}

// Validate checks the options domain: non-negative counts, and more than
// one chain for the adaptive selector or a member roster, which have
// nothing to allocate across a single chain. Every consumer (portfolio,
// coordinator, dynamic replay, CLI flags) checks options here.
func (o PortfolioOptions) Validate() error {
	switch {
	case o.Chains < 0:
		return fmt.Errorf("solver: portfolio chains must be non-negative, got %d", o.Chains)
	case o.Workers < 0:
		return fmt.Errorf("solver: portfolio workers must be non-negative, got %d", o.Workers)
	case o.Adaptive && o.Chains <= 1:
		return fmt.Errorf("solver: the adaptive portfolio requires more than one chain, got %d", o.Chains)
	case len(o.Members) > 0 && o.Chains <= 1:
		return fmt.Errorf("solver: a portfolio member roster requires more than one chain, got %d", o.Chains)
	}
	return nil
}

// WithDefaults resolves the zero values: at least one chain, and a worker
// pool capped at GOMAXPROCS and at the chain count.
func (o PortfolioOptions) WithDefaults() PortfolioOptions {
	if o.Chains <= 0 {
		o.Chains = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > o.Chains {
		o.Workers = o.Chains
	}
	return o
}
