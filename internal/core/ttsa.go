package core

import (
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// TTSA is the Threshold-Triggered Simulated Annealing scheduler
// (Algorithm 1 of the paper). It is stateless between solves and safe for
// concurrent Schedule calls.
type TTSA struct {
	cfg Config
	obs solver.SolveObserver
}

var _ solver.Scheduler = (*TTSA)(nil)

// New returns a TTSA scheduler with the given configuration.
func New(cfg Config) (*TTSA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TTSA{cfg: cfg}, nil
}

// NewDefault returns a TTSA scheduler with the paper's published constants.
func NewDefault() *TTSA {
	t, err := New(DefaultConfig())
	if err != nil {
		panic("core: default config invalid: " + err.Error())
	}
	return t
}

// Config returns the scheduler's configuration.
func (t *TTSA) Config() Config { return t.cfg }

// WithObserver returns a copy of the scheduler reporting per-solve
// telemetry (solver.SolveStats) to o after every successful solve. The
// observer is strictly passive: it is called once per solve with counts the
// walk maintains anyway, consumes no randomness, and therefore changes
// neither the walk nor the returned result — instrumented and
// uninstrumented schedulers are bit-identical per seed. o must be safe for
// concurrent use if the scheduler is shared across goroutines (portfolio
// chains report concurrently). A nil o returns an unobserved copy.
func (t *TTSA) WithObserver(o solver.SolveObserver) *TTSA {
	c := *t
	c.obs = o
	return &c
}

// WithConfig returns a copy of the scheduler running cfg and reporting to
// the same observer.
func (t *TTSA) WithConfig(cfg Config) (*TTSA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := *t
	c.cfg = cfg
	return &c, nil
}

// Name implements solver.Scheduler.
func (t *TTSA) Name() string { return "TSAJS" }

// Schedule runs Algorithm 1:
//
//	T ← N; T_min ← 1e-9; α₁ ← 0.97; α₂ ← 0.90; L ← 30; maxCount ← 1.75·L
//	X_old ← random feasible; loop until T ≤ T_min:
//	  repeat L times:
//	    X_new ← GetNeighborhood(X_old)         (Algorithm 2)
//	    F_new ← KKT allocation (Eq. 22);  J_new ← J*(X_new) (Eq. 24)
//	    accept improvements; accept deteriorations w.p. exp(δ/T),
//	    counting accepted deteriorations
//	  cool with α₁, or with α₂ once the counter crosses maxCount
//
// The best decision seen anywhere in the walk is returned.
//
// Schedule is the untraced form of ScheduleTrace; both run the identical
// algorithm and, for the same scenario and rng state, return the identical
// result.
func (t *TTSA) Schedule(sc *scenario.Scenario, rng *simrand.Source) (solver.Result, error) {
	res, _, err := t.runChain(sc, rng, false, ChainOptions{})
	return res, err
}
