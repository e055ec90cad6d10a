package baseline

import (
	"fmt"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// LocalSearchConfig parametrizes the LocalSearch baseline.
type LocalSearchConfig struct {
	// MaxIterations caps the total number of candidate evaluations.
	MaxIterations int `json:"maxIterations"`
	// Patience stops the search after this many consecutive candidates
	// without improvement (the paper's "search stops when the algorithm
	// converges or reaches the maximum number of iterations").
	Patience int `json:"patience"`
	// InitOffloadProb seeds the random feasible starting point.
	InitOffloadProb float64 `json:"initOffloadProb"`
}

// DefaultLocalSearchConfig matches the evaluation budget of the TTSA
// default schedule (same order of candidate evaluations).
func DefaultLocalSearchConfig() LocalSearchConfig {
	return LocalSearchConfig{
		MaxIterations:   20000,
		Patience:        2000,
		InitOffloadProb: 0.5,
	}
}

// Validate checks the configuration.
func (c LocalSearchConfig) Validate() error {
	switch {
	case c.MaxIterations <= 0:
		return fmt.Errorf("baseline: local search iterations must be positive, got %d", c.MaxIterations)
	case c.Patience <= 0:
		return fmt.Errorf("baseline: local search patience must be positive, got %d", c.Patience)
	case c.InitOffloadProb < 0 || c.InitOffloadProb > 1:
		return fmt.Errorf("baseline: init offload probability must be in [0,1], got %g", c.InitOffloadProb)
	}
	return nil
}

// LocalSearch is the paper's LocalSearch baseline: repeatedly sample a
// neighbouring state of the current decision (the same move set as TTSA)
// and accept it only if it improves the utility — hill climbing that
// converges to the nearest local optimum.
type LocalSearch struct {
	cfg LocalSearchConfig
}

var _ solver.Scheduler = (*LocalSearch)(nil)

// NewLocalSearch returns a LocalSearch with the given configuration.
func NewLocalSearch(cfg LocalSearchConfig) (*LocalSearch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &LocalSearch{cfg: cfg}, nil
}

// NewDefaultLocalSearch returns a LocalSearch with default configuration.
func NewDefaultLocalSearch() *LocalSearch {
	ls, err := NewLocalSearch(DefaultLocalSearchConfig())
	if err != nil {
		panic("baseline: default local search config invalid: " + err.Error())
	}
	return ls
}

// Name implements solver.Scheduler.
func (l *LocalSearch) Name() string { return "LocalSearch" }

// Schedule implements solver.Scheduler.
func (l *LocalSearch) Schedule(sc *scenario.Scenario, rng *simrand.Source) (solver.Result, error) {
	started := time.Now()
	eval := objective.New(sc)
	cur, err := solver.RandomFeasible(sc, rng, l.cfg.InitOffloadProb)
	if err != nil {
		return solver.Result{}, fmt.Errorf("baseline: local search init: %w", err)
	}
	inc := eval.Track(cur)
	curJ := inc.Utility()
	evaluations := 1

	// Each candidate is a move applied to cur in place, priced by
	// re-pricing the users its undo record names; a move that fails or does
	// not improve is reverted, so cur is never copied.
	moves := core.NeighborhoodFor(core.DefaultConfig())
	var undo core.Undo
	stall := 0
	for iter := 0; iter < l.cfg.MaxIterations && stall < l.cfg.Patience; iter++ {
		if moves.Apply(cur, rng, &undo) {
			candJ := inc.PreviewMoved(cur, undo.Users())
			evaluations++
			if candJ > curJ {
				inc.Accept(cur)
				curJ = candJ
				stall = 0
				continue
			}
		}
		if err := undo.Revert(cur); err != nil {
			return solver.Result{}, fmt.Errorf("baseline: %w", err)
		}
		stall++
	}
	return solver.Finish(l.Name(), eval, cur, evaluations, started), nil
}
