package obs

import (
	"github.com/tsajs/tsajs/internal/solver"
)

// DefaultLatencyEdges bucket solve/epoch wall times in seconds, spanning
// sub-millisecond kernel solves to multi-second exhaustive sweeps.
var DefaultLatencyEdges = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultUtilityEdges bucket achieved system utilities. The paper's U=30
// default scenario lands around 15–25; the range covers the U and λ sweeps.
var DefaultUtilityEdges = []float64{
	0, 1, 2.5, 5, 7.5, 10, 15, 20, 30, 45, 60, 90, 120, 180,
}

// DefaultBatchEdges bucket coordinator epoch batch sizes.
var DefaultBatchEdges = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// SolverMetrics turns solver.SolveStats reports into registry metrics,
// labelled by scheme. It implements solver.SolveObserver and is safe for
// concurrent use; the registry lookup per report takes the registry mutex,
// which is fine at once-per-solve granularity and keeps the annealer's
// inner loop untouched.
type SolverMetrics struct {
	reg    *Registry
	labels []Label
}

var _ solver.SolveObserver = (*SolverMetrics)(nil)

// NewSolverMetrics returns a solve observer recording into r under the
// tsajs_solver_* metric family, with the given constant labels added to
// every series.
func NewSolverMetrics(r *Registry, labels ...Label) *SolverMetrics {
	return &SolverMetrics{reg: r, labels: labels}
}

// ObserveSolve implements solver.SolveObserver.
func (m *SolverMetrics) ObserveSolve(st solver.SolveStats) {
	ls := append(append([]Label(nil), m.labels...), Label{Key: "scheme", Value: st.Scheme})
	m.reg.Counter("tsajs_solver_solves_total",
		"Completed scheduler solves.", ls...).Inc()
	m.reg.Counter("tsajs_solver_evaluations_total",
		"Objective evaluations performed by the search.", ls...).Add(uint64(st.Evaluations))
	m.reg.Counter("tsajs_solver_stages_total",
		"Temperature stages run by the annealer.", ls...).Add(uint64(st.Stages))
	m.reg.Counter("tsajs_solver_accelerated_stages_total",
		"Stages ended by the threshold-triggered fast cooling step (alpha2).", ls...).Add(uint64(st.AcceleratedStages))
	m.reg.Counter("tsajs_solver_moves_accepted_better_total",
		"Candidate moves accepted as improvements.", ls...).Add(uint64(st.AcceptedBetter))
	m.reg.Counter("tsajs_solver_moves_accepted_worse_total",
		"Deteriorating moves accepted by the Metropolis criterion.", ls...).Add(uint64(st.AcceptedWorse))
	m.reg.Counter("tsajs_solver_moves_rejected_total",
		"Candidate moves rejected and reverted.", ls...).Add(uint64(st.Rejected))
	if st.ElidedEvaluations > 0 {
		// Registered on first use: a solve that never froze (every capped
		// serving solve) pays no extra registry lookup.
		m.reg.Counter("tsajs_solver_elided_evaluations_total",
			"Rejected candidates of the annealer's frozen tail, counted without being priced.", ls...).Add(uint64(st.ElidedEvaluations))
	}
	m.reg.Counter("tsajs_solver_chains_total",
		"Restart chains merged into returned results.", ls...).Add(uint64(st.Chains))
	m.reg.Histogram("tsajs_solver_solve_seconds",
		"Wall-clock solve time.", DefaultLatencyEdges, ls...).Observe(st.Elapsed.Seconds())
	m.reg.Histogram("tsajs_solver_utility",
		"Achieved system utility per solve.", DefaultUtilityEdges, ls...).Observe(st.Utility)
	if secs := st.Elapsed.Seconds(); secs > 0 {
		m.reg.Gauge("tsajs_solver_evaluations_per_second",
			"Objective evaluation throughput of the most recent solve.", ls...).
			Set(float64(st.Evaluations) / secs)
	}
}

// PortfolioMetrics turns portfolio member outcomes into registry metrics,
// labelled by member: chain slots run, reduction wins, and cumulative
// wall-clock budget per member. It implements solver.MemberObserver and is
// safe for concurrent use at once-per-solve granularity (one registry
// lookup per slot per solve).
type PortfolioMetrics struct {
	reg    *Registry
	labels []Label
}

var _ solver.MemberObserver = (*PortfolioMetrics)(nil)

// NewPortfolioMetrics returns a member observer recording into r under the
// tsajs_portfolio_* metric family, with the given constant labels added to
// every series.
func NewPortfolioMetrics(r *Registry, labels ...Label) *PortfolioMetrics {
	return &PortfolioMetrics{reg: r, labels: labels}
}

// Slots returns member's chain-slot counter, registering it if absent.
func (m *PortfolioMetrics) Slots(member string) *Counter {
	ls := append(append([]Label(nil), m.labels...), Label{Key: "member", Value: member})
	return m.reg.Counter("tsajs_portfolio_member_slots_total",
		"Portfolio chain slots run, by member.", ls...)
}

// Wins returns member's reduction-win counter, registering it if absent.
func (m *PortfolioMetrics) Wins(member string) *Counter {
	ls := append(append([]Label(nil), m.labels...), Label{Key: "member", Value: member})
	return m.reg.Counter("tsajs_portfolio_member_wins_total",
		"Portfolio solves won (slot selected by the deterministic reduction), by member.", ls...)
}

// BudgetMs returns member's cumulative wall-clock budget gauge,
// registering it if absent.
func (m *PortfolioMetrics) BudgetMs(member string) *Gauge {
	ls := append(append([]Label(nil), m.labels...), Label{Key: "member", Value: member})
	return m.reg.Gauge("tsajs_portfolio_budget_ms",
		"Cumulative wall-clock milliseconds of chain-slot compute, by member.", ls...)
}

// ObserveMembers implements solver.MemberObserver.
func (m *PortfolioMetrics) ObserveMembers(outcomes []solver.MemberOutcome) {
	for _, o := range outcomes {
		m.Slots(o.Member).Inc()
		wins := m.Wins(o.Member)
		if o.Won {
			wins.Inc()
		}
		m.BudgetMs(o.Member).Add(o.ElapsedMs)
	}
}

// ClientMetrics are the device-side resilience counters of the cran client:
// transport attempts and failures, retry and redial activity, circuit
// breaker fast-fails, and graceful degradations to local execution. All
// fields are non-nil after NewClientMetrics.
type ClientMetrics struct {
	// Attempts counts transport attempts; Retries the subset that were
	// re-tries of an earlier failed attempt within one call.
	Attempts *Counter
	Retries  *Counter
	// Dials counts (re)connections established.
	Dials *Counter
	// TransportFailures counts attempts that failed on the wire.
	TransportFailures *Counter
	// BreakerFastFails counts calls answered without touching the network
	// because the circuit breaker was open.
	BreakerFastFails *Counter
	// Degraded counts calls gracefully degraded to an Eq.-1 local decision.
	Degraded *Counter
}

// NewClientMetrics registers the client resilience counters in r under the
// tsajs_client_* family with the given constant labels.
func NewClientMetrics(r *Registry, labels ...Label) *ClientMetrics {
	return &ClientMetrics{
		Attempts: r.Counter("tsajs_client_attempts_total",
			"Transport attempts (including retries).", labels...),
		Retries: r.Counter("tsajs_client_retries_total",
			"Retried transport attempts.", labels...),
		Dials: r.Counter("tsajs_client_dials_total",
			"Connections established to the coordinator.", labels...),
		TransportFailures: r.Counter("tsajs_client_transport_failures_total",
			"Transport attempts that failed on the wire.", labels...),
		BreakerFastFails: r.Counter("tsajs_client_breaker_fast_fails_total",
			"Calls failed fast because the circuit breaker was open.", labels...),
		Degraded: r.Counter("tsajs_client_degraded_total",
			"Calls gracefully degraded to a local-execution decision.", labels...),
	}
}
