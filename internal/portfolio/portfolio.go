// Package portfolio runs many independent solver chains as one solve — the
// multi-restart evaluation methodology of the paper (and of the hJTORA
// comparator) made a first-class, parallel scheduler.
//
// Determinism is the package's contract. Every chain derives its random
// stream solely from the caller's rng seed and its own chain index
// (ChainStream), chains never share mutable state, and the reduction walks
// results in chain-index order with ties broken by the lower index. The merged assignment and utility are therefore bit-identical
// regardless of worker count, core count, goroutine scheduling, or the race
// detector — K chains on one worker and K chains on eight workers return
// the same answer.
//
// The portfolio is heterogeneous: chain slots draw from a roster of members
// (TTSA variants with distinct cooling schedules and neighbourhood mixes,
// an incumbent-attraction member, and zero-anneal baselines; member.go).
// Which member runs which slot is a plan — fixed round-robin by default, or
// allocated online by the deterministic UCB Selector in adaptive mode
// (selector.go). The default configuration (no members, no adaptive) is a
// single-member "ttsa" roster whose all-zero plan reproduces the historical
// K-identical-chain portfolio bit for bit.
package portfolio

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// chainLabel offsets the per-chain Derive labels so portfolio streams never
// collide with the other fixed labels in the codebase (experiment trials,
// dynamic subsystems).
const chainLabel = 0x706f7274 // "port"

// ChainStream returns the random stream of chain i of a portfolio solve
// seeded by rng. It reads only rng's seed (Derive never consumes state), so
// streams can be taken in any order; the differential tests use it to build
// the sequential reference a parallel run must reproduce.
func ChainStream(rng *simrand.Source, chain int) *simrand.Source {
	return rng.Derive(chainLabel + uint64(chain))
}

// Portfolio is a solver.Scheduler running K member chains per solve with a
// deterministic reduction.
type Portfolio struct {
	base    *core.TTSA
	baseCfg core.Config
	opts    solver.PortfolioOptions
	obs     solver.SolveObserver
	memObs  solver.MemberObserver
	members []member
	names   []string
	// sel and seq drive the internal epoch sequence of an adaptive
	// portfolio used through the Scheduler interface (Schedule/SolveFrom).
	// Pointers so WithObserver's value copy shares the learning state.
	sel *Selector
	seq *atomic.Uint64
}

var _ solver.Scheduler = (*Portfolio)(nil)

// New builds a portfolio of chains of the given TTSA configuration.
func New(cfg core.Config, opts solver.PortfolioOptions) (*Portfolio, error) {
	base, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return Wrap(base, opts)
}

// Wrap builds a portfolio around an existing TTSA scheduler. The member
// roster is opts.Members, defaulting to DefaultAdaptiveMembers in adaptive
// mode and to the single base-TTSA member otherwise. An adaptive portfolio
// carries its own epoch sequence and selector (lag 1: each solve's plan
// sees every earlier solve's outcome), which assumes solves are issued
// sequentially — the dynamic replay and CLI pattern. Concurrent adaptive
// solves on one Portfolio would serialize on the selector; the coordinator
// instead drives SolvePlan with its own pipeline-depth selector.
func Wrap(base *core.TTSA, opts solver.PortfolioOptions) (*Portfolio, error) {
	if base == nil {
		return nil, fmt.Errorf("portfolio: nil base scheduler")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	names := opts.Members
	if len(names) == 0 && opts.Adaptive {
		names = DefaultAdaptiveMembers()
	}
	members, err := resolveMembers(names, base.Config())
	if err != nil {
		return nil, err
	}
	p := &Portfolio{base: base, baseCfg: base.Config(), opts: opts, members: members}
	p.names = make([]string, len(members))
	for i, m := range members {
		p.names[i] = m.name
	}
	if opts.Adaptive {
		p.sel = NewSelector(p.names, opts.Chains, 1)
		p.seq = new(atomic.Uint64)
	}
	return p, nil
}

// Name implements solver.Scheduler.
func (p *Portfolio) Name() string { return "TSAJS-P" }

// Chains returns K, the number of restarts per solve.
func (p *Portfolio) Chains() int { return p.opts.Chains }

// Options returns the resolved portfolio options.
func (p *Portfolio) Options() solver.PortfolioOptions { return p.opts }

// Members returns the resolved roster names in member-index order.
func (p *Portfolio) Members() []string { return append([]string(nil), p.names...) }

// Adaptive reports whether the portfolio carries the online selector.
func (p *Portfolio) Adaptive() bool { return p.sel != nil }

// FixedPlan returns the static allocation of fixed mode: slot i runs
// member i mod len(roster). With the default single-member roster this is
// the all-zero plan of the historical portfolio.
func (p *Portfolio) FixedPlan() []int {
	plan := make([]int, p.opts.Chains)
	for i := range plan {
		plan[i] = i % len(p.members)
	}
	return plan
}

// MemberTotals returns the per-member aggregates of an adaptive
// portfolio's internal selector; nil in fixed mode.
func (p *Portfolio) MemberTotals() []solver.MemberTotal {
	if p.sel == nil {
		return nil
	}
	return p.sel.Totals()
}

// WithObserver returns a copy of the portfolio reporting one aggregate
// solver.SolveStats per solve (scheme "TSAJS-P", Chains = K, evaluations
// summed over chains) to o. Per-chain telemetry additionally flows when the
// wrapped base TTSA itself carries an observer (core.TTSA.WithObserver);
// chain reports then arrive concurrently from worker goroutines, so o must
// be safe for concurrent use. Observation is passive and never changes the
// merged result. A nil o returns an unobserved copy.
func (p *Portfolio) WithObserver(o solver.SolveObserver) *Portfolio {
	c := *p
	c.obs = o
	return &c
}

// WithMemberObserver returns a copy of the portfolio reporting each
// solve's per-slot member outcomes to o. Observation is passive.
func (p *Portfolio) WithMemberObserver(o solver.MemberObserver) *Portfolio {
	c := *p
	c.memObs = o
	return &c
}

// Schedule implements solver.Scheduler: a cold-started portfolio solve.
func (p *Portfolio) Schedule(sc *scenario.Scenario, rng *simrand.Source) (solver.Result, error) {
	return p.SolveFrom(sc, rng, nil)
}

// SolveFrom runs the portfolio warm-started from initial (nil means each
// chain draws its own random feasible start). The initial decision is
// cloned per chain, never mutated, and its server masks carry into every
// chain, so masked servers cannot appear in the merged best assignment.
// In adaptive mode each call advances the internal epoch sequence and its
// plan comes from the selector; otherwise the fixed plan runs.
func (p *Portfolio) SolveFrom(sc *scenario.Scenario, rng *simrand.Source, initial *assign.Assignment) (solver.Result, error) {
	if p.sel != nil {
		e := p.seq.Add(1) - 1
		plan := p.sel.Plan(e, rng)
		res, outcomes, err := p.SolvePlan(sc, rng, initial, plan)
		if err != nil {
			p.sel.Skip(e)
			return res, err
		}
		p.sel.Commit(e, outcomes)
		return res, nil
	}
	res, _, err := p.SolvePlan(sc, rng, initial, p.FixedPlan())
	return res, err
}

// SolvePlan runs one portfolio solve with an explicit member-per-slot
// plan: slot i runs member plan[i] on chain stream i. The reduction is
// unchanged from the homogeneous portfolio — every slot's decision is
// re-evaluated by one fresh evaluator in slot order with ties to the lower
// index — so for a given plan the merged result is a pure function of
// (scenario, seed, plan), independent of worker count.
//
// The returned outcomes report each slot's member, utility (under the
// reduction evaluator), evaluations, wall time, and whether it won; they
// feed the adaptive selector and the per-member telemetry.
func (p *Portfolio) SolvePlan(sc *scenario.Scenario, rng *simrand.Source, initial *assign.Assignment, plan []int) (solver.Result, []solver.MemberOutcome, error) {
	started := time.Now()
	k := len(plan)
	if k == 0 {
		return solver.Result{}, nil, fmt.Errorf("portfolio: empty plan")
	}
	for i, m := range plan {
		if m < 0 || m >= len(p.members) {
			return solver.Result{}, nil, fmt.Errorf("portfolio: plan slot %d names member %d outside roster of %d", i, m, len(p.members))
		}
	}

	// Derive every chain stream up front, in index order: stream identity
	// must never depend on which worker picks a chain up first.
	streams := make([]*simrand.Source, k)
	for i := range streams {
		streams[i] = ChainStream(rng, i)
	}

	results := make([]solver.Result, k)
	errs := make([]error, k)
	elapsedMs := make([]float64, k)
	var next atomic.Int64
	next.Store(-1)

	workers := p.opts.Workers
	if workers > k {
		workers = k
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One evaluator (and its scratch) per worker, reused across
			// every chain the worker runs.
			eval := objective.New(sc)
			for {
				i := int(next.Add(1))
				if i >= k {
					return
				}
				t0 := time.Now()
				results[i], errs[i] = p.solveSlot(sc, streams[i], eval, initial, p.members[plan[i]])
				elapsedMs[i] = float64(time.Since(t0)) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()

	// Deterministic reduction: recompute every chain's utility with one
	// fresh evaluator and scan in chain-index order. The strict > keeps
	// the lowest chain index on ties, so the merged result is a pure
	// function of (scenario, seed, plan) — worker count and completion
	// order never show through.
	eval := objective.New(sc)
	bestIdx := -1
	bestJ := 0.0
	evaluations := 0
	utilities := make([]float64, k)
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			return solver.Result{}, nil, fmt.Errorf("portfolio: chain %d (%s): %w", i, p.members[plan[i]].name, errs[i])
		}
		evaluations += results[i].Evaluations
		utilities[i] = eval.SystemUtility(results[i].Assignment)
		if u := utilities[i]; bestIdx == -1 || u > bestJ {
			bestIdx, bestJ = i, u
		}
	}
	merged := solver.Finish(p.Name(), eval, results[bestIdx].Assignment, evaluations, started)

	outcomes := make([]solver.MemberOutcome, k)
	for i := 0; i < k; i++ {
		outcomes[i] = solver.MemberOutcome{
			Slot:        i,
			Member:      p.members[plan[i]].name,
			Utility:     utilities[i],
			Evaluations: results[i].Evaluations,
			ElapsedMs:   elapsedMs[i],
			Won:         i == bestIdx,
		}
	}

	if p.obs != nil {
		p.obs.ObserveSolve(solver.SolveStats{
			Scheme:      p.Name(),
			Chains:      k,
			Evaluations: merged.Evaluations,
			Utility:     merged.Utility,
			Elapsed:     merged.Elapsed,
		})
	}
	if p.memObs != nil {
		p.memObs.ObserveMembers(outcomes)
	}
	return merged, outcomes, nil
}

// solveSlot dispatches one chain slot to its member. Anneal members run
// the base TTSA chain (with the member's config override); the attract
// member runs the incumbent-attraction search under the base evaluation
// budget; baseline members run their zero-anneal schedulers from their own
// deterministic cold start, with initial's server masks re-applied to the
// result so a masked server can never reach the reduction.
func (p *Portfolio) solveSlot(sc *scenario.Scenario, stream *simrand.Source, eval *objective.Evaluator, initial *assign.Assignment, m member) (solver.Result, error) {
	switch m.kind {
	case kindAttract:
		return attractSolve(sc, stream, eval, initial, p.baseCfg.MaxEvaluations)
	case kindBaseline:
		res, err := m.sched.Schedule(sc, stream)
		if err != nil {
			return res, err
		}
		if initial != nil {
			for _, s := range initial.MaskedServers() {
				res.Assignment.MaskServer(s)
			}
		}
		return res, nil
	default:
		return p.base.ScheduleChain(sc, stream, core.ChainOptions{
			Evaluator: eval,
			Initial:   initial,
			Config:    m.cfg,
		})
	}
}
