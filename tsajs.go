package tsajs

import (
	"github.com/tsajs/tsajs/internal/alloc"
	"github.com/tsajs/tsajs/internal/analysis"
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/chaos"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/dynamic"
	"github.com/tsajs/tsajs/internal/experiment"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/report"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/shard"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/spec"
	"github.com/tsajs/tsajs/internal/task"
)

// Core model types.
type (
	// Scenario is a complete, validated JTORA problem instance.
	Scenario = scenario.Scenario
	// Params configures Build; see DefaultParams for the paper defaults.
	Params = scenario.Params
	// Task is an atomic computation assignment ⟨d_u, w_u⟩.
	Task = task.Task
	// Point is a planar position in kilometres.
	Point = geom.Point
	// Assignment is an offloading decision X; it structurally enforces
	// the uniqueness constraints of the JTORA formulation.
	Assignment = assign.Assignment
	// Allocation is a computing-resource allocation F.
	Allocation = alloc.Allocation
	// Report is the full per-user evaluation of a decision.
	Report = objective.Report
	// Result is the outcome of one scheduler run.
	Result = solver.Result
	// Scheduler is the common interface of TSAJS and all baselines.
	Scheduler = solver.Scheduler
	// Rand is the deterministic random source driving stochastic
	// schedulers and scenario generation.
	Rand = simrand.Source
	// Config parametrizes the TTSA scheduler (Algorithm 1).
	Config = core.Config
	// TTSA is the concrete TSAJS scheduler; beyond the Scheduler
	// interface it offers ScheduleTrace for convergence analysis.
	TTSA = core.TTSA
	// TracePoint is one temperature stage of a traced TTSA run.
	TracePoint = core.TracePoint
	// TraceSummary condenses a traced run (stages, evaluations,
	// accelerated-cooling count, time-to-99%).
	TraceSummary = analysis.Summary
	// TraceComparison reports relative convergence speed of two traces.
	TraceComparison = analysis.Comparison
	// Portfolio is the parallel multi-restart TTSA solver: K seed-split
	// chains over a bounded worker pool with a deterministic chain-index
	// reduction, so the merged result is bit-identical regardless of
	// worker count or goroutine scheduling.
	Portfolio = portfolio.Portfolio
	// PortfolioOptions configures a Portfolio (chain count, worker cap,
	// heterogeneous member roster, adaptive bandit selection).
	PortfolioOptions = solver.PortfolioOptions
	// ExperimentOptions controls paper-figure reproduction runs.
	ExperimentOptions = experiment.Options
	// FigureTable is one reproduced figure panel (x axis + series).
	FigureTable = report.Table
	// DynamicConfig parametrizes the multi-epoch online simulation
	// (mobility + stochastic task arrivals + per-epoch re-scheduling).
	DynamicConfig = dynamic.Config
	// DeltaConfig parametrizes delta-epoch incremental solving: dirty-set
	// tracking by movement threshold, the full-solve cadence and drift
	// gates, and the scoped repair anneal's budget. Wire it into
	// DynamicConfig.Delta (replay) or CoordinatorConfig.Delta (serving).
	DeltaConfig = delta.Config
	// DynamicResult aggregates an online simulation run.
	DynamicResult = dynamic.Result
	// Coordinator is the C-RAN scheduling service (the paper's
	// centralized BBU) serving offloading requests over TCP.
	Coordinator = cran.Server
	// CoordinatorConfig parametrizes a Coordinator.
	CoordinatorConfig = cran.ServerConfig
	// CoordinatorClient is a device-side connection to a Coordinator.
	CoordinatorClient = cran.Client
	// OffloadRequest and OffloadResponse are the coordinator's wire
	// messages.
	OffloadRequest  = cran.OffloadRequest
	OffloadResponse = cran.OffloadResponse
	// ResilienceConfig tunes the client-side fault tolerance: retries
	// with jittered exponential backoff, automatic reconnection, a
	// circuit breaker, and graceful degradation to local execution.
	ResilienceConfig = cran.ResilienceConfig
	// FaultConfig parametrizes seedable fault-plan generation (two-state
	// Markov outages per edge server plus coordinator windows).
	FaultConfig = faults.Config
	// FaultPlan is a deterministic epoch-by-epoch failure schedule,
	// consumable by DynamicConfig.FaultPlan.
	FaultPlan = faults.Plan
	// SolverChaos injects deterministic per-epoch latency into the
	// coordinator's solve path (the slow-solver failure mode); wire into
	// CoordinatorConfig.SolverChaos, optionally windowed in wall-clock
	// time.
	SolverChaos = faults.SolverChaos
	// OverloadConfig parametrizes the end-to-end chaos harness
	// (RunOverloadHarness).
	OverloadConfig = chaos.Config
	// OverloadReport is the chaos harness outcome: outcome counts, phase
	// goodputs, and any invariant violations.
	OverloadReport = chaos.Report
	// MetricsRegistry is the observability layer's metric registry:
	// lock-free counters, gauges, and fixed-bucket histograms, rendered in
	// Prometheus text exposition format and JSON.
	MetricsRegistry = obs.Registry
	// ClientMetrics counts the resilient client's retries, redials,
	// breaker fast-fails, and graceful degradations; wire into
	// ResilienceConfig.Metrics.
	ClientMetrics = obs.ClientMetrics
	// CoordinatorPartition marks a coordinator as one shard of a K-shard
	// cluster: it owns the cells the assignment table gives its index,
	// rejects requests for foreign cells with ErrWrongShard, and counts
	// epochs per cell so decisions are independent of cluster layout.
	CoordinatorPartition = cran.PartitionConfig
	// ShardClient routes offload requests to the coordinator shard owning
	// the caller's cell, with per-shard resilient connections and
	// cross-shard handoff accounting.
	ShardClient = shard.Client
	// ShardClientConfig parametrizes a ShardClient.
	ShardClientConfig = shard.ClientConfig
)

// DefaultParams returns the paper's evaluation defaults (Section V): S=9
// hexagonal cells 1 km apart, N=3 subchannels over B=20 MHz, σ²=−100 dBm,
// P_u=10 dBm, f_s=20 GHz, f_u=1 GHz, κ=5·10⁻²⁷, d_u=420 KB, w_u=1000
// Megacycles, β^time=β^energy=0.5, λ=1.
func DefaultParams() Params { return scenario.DefaultParams() }

// Build draws a scenario instance from params (deterministic in
// params.Seed).
func Build(params Params) (*Scenario, error) { return scenario.Build(params) }

// NewRand returns a deterministic random source for the given seed.
func NewRand(seed uint64) *Rand { return simrand.New(seed) }

// DefaultConfig returns Algorithm 1's published constants.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewScheduler returns the TSAJS scheduler with the paper's defaults.
func NewScheduler() Scheduler { return core.NewDefault() }

// NewSchedulerWith returns a TSAJS scheduler with a custom configuration.
func NewSchedulerWith(cfg Config) (Scheduler, error) { return core.New(cfg) }

// NewTTSA returns the concrete TSAJS scheduler, exposing ScheduleTrace in
// addition to the Scheduler interface.
func NewTTSA(cfg Config) (*TTSA, error) { return core.New(cfg) }

// NewPortfolio returns the parallel multi-restart TTSA solver: opts.Chains
// independent chains, seed-split from the Schedule rng, merged by a
// deterministic reduction (chain-index order, ties to the lower index).
// The same seed always yields the same assignment and utility, bit for
// bit, whatever opts.Workers is.
func NewPortfolio(cfg Config, opts PortfolioOptions) (*Portfolio, error) {
	return portfolio.New(cfg, opts)
}

// Baseline schedulers from the paper's evaluation.
func NewExhaustive() Scheduler  { return &baseline.Exhaustive{} }
func NewHJTORA() Scheduler      { return &baseline.HJTORA{} }
func NewGreedy() Scheduler      { return &baseline.Greedy{} }
func NewLocalSearch() Scheduler { return baseline.NewDefaultLocalSearch() }

// NewAssignment returns an all-local decision sized for sc.
func NewAssignment(sc *Scenario) (*Assignment, error) {
	return assign.New(sc.U(), sc.S(), sc.N())
}

// SystemUtility evaluates J*(X): the system utility of decision a under
// the KKT-optimal resource allocation.
func SystemUtility(sc *Scenario, a *Assignment) float64 {
	return objective.New(sc).SystemUtility(a)
}

// Evaluate produces the full per-user report (delays, energies, rates,
// allocated CPU, utilities) of decision a.
func Evaluate(sc *Scenario, a *Assignment) Report {
	return objective.New(sc).Evaluate(a)
}

// KKTAllocation returns the closed-form optimal resource allocation F* for
// decision a (Eq. 22).
func KKTAllocation(sc *Scenario, a *Assignment) Allocation {
	f, _ := alloc.KKT(sc, a)
	return f
}

// Verify checks that a scheduler result is feasible for sc.
func Verify(sc *Scenario, r Result) error { return solver.Verify(sc, r) }

// RunDynamic executes the multi-epoch online simulation: random-waypoint
// mobility, stochastic task arrivals, and TSAJS re-scheduling per epoch
// (warm-started when cfg.WarmStart is set).
func RunDynamic(cfg DynamicConfig) (*DynamicResult, error) { return dynamic.Run(cfg) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ErrCoordinatorQueueFull is the failure reason carried by every response in
// an epoch batch that was flushed while the coordinator's solve queue was at
// capacity: the batch is shed immediately (fail-fast backpressure) instead of
// buffering unboundedly behind slow solves.
var ErrCoordinatorQueueFull = cran.ErrQueueFull

// ErrDeadlineExceeded is returned for a request whose epoch deadline passed
// while it waited in the solve queue: the coordinator drops it at dequeue
// instead of spending solver time on a stale answer.
var ErrDeadlineExceeded = cran.ErrDeadlineExceeded

// ErrAdmissionRejected is returned when the coordinator's admission
// controller predicts the request cannot be answered within its deadline
// (estimated queue wait exceeds the deadline budget) and sheds it at the
// door.
var ErrAdmissionRejected = cran.ErrAdmissionRejected

// RunOverloadHarness executes the end-to-end chaos harness: it measures a
// coordinator's sustainable closed-loop rate, then drives a fault-injected
// coordinator at a multiple of that rate (default 2×) with a slow solver
// injected for part of the window, and verifies the overload-resilience
// invariants — every request answered exactly once, no deadline-expired
// full-quality solves, a goodput floor, and recovery after the fault
// window. Violations are listed in the report; an empty list is a pass.
func RunOverloadHarness(cfg OverloadConfig) (OverloadReport, error) { return chaos.Run(cfg) }

// NewCoordinator starts a C-RAN scheduling coordinator listening on addr.
// The coordinator pipelines its serving path: a collector goroutine batches
// requests into epochs and stamps each epoch's number and RNG streams at
// enqueue time, and CoordinatorConfig.Workers solver goroutines drain the
// bounded solve queue — per-epoch results are bit-identical for every worker
// count.
func NewCoordinator(addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	return cran.NewServer(addr, cfg)
}

// CoordinatorProtocolBinary selects, in ResilienceConfig.Protocol, the
// wirev2 framed binary protocol that multiplexes many in-flight requests
// over one connection instead of the default newline-delimited JSON. A
// coordinator serves both on the same port, negotiated on each
// connection's first bytes.
const CoordinatorProtocolBinary = cran.ProtoBinary

// DialCoordinatorBinary connects a device-side client to a coordinator
// over the wirev2 binary protocol, with DialCoordinator's strict
// semantics. Concurrent Offload calls multiplex over the one connection,
// each under its own 64-bit request ID, so a single client can hold many
// requests in flight across scheduling epochs.
func DialCoordinatorBinary(addr string) (*CoordinatorClient, error) { return cran.DialBinary(addr) }

// DialCoordinator connects a device-side client to a coordinator. The
// returned client is strict: it fails fast when the coordinator is
// unreachable and surfaces every transport error. Use
// DialCoordinatorResilient for the fault-tolerant client.
func DialCoordinator(addr string) (*CoordinatorClient, error) { return cran.Dial(addr) }

// DialCoordinatorResilient returns a device-side client with the full
// fault-tolerance stack on: retries with jittered exponential backoff,
// automatic reconnection, a circuit breaker, and graceful degradation —
// when the coordinator cannot answer, Offload returns a valid
// local-execution decision (Eq. 1 cost, Degraded=true) instead of an
// error. Constructing the client never requires the coordinator to be up.
func DialCoordinatorResilient(addr string, rc ResilienceConfig) (*CoordinatorClient, error) {
	return cran.DialResilient(addr, rc)
}

// GenerateFaultPlan draws a deterministic failure schedule: each edge
// server follows a two-state Markov chain (up→down with cfg.ServerFailProb,
// down→up with cfg.ServerRecoverProb), and the coordinator gets its own
// unavailability windows. The same cfg, sizes and rng seed always produce
// the same plan.
func GenerateFaultPlan(cfg FaultConfig, servers, epochs int, rng *Rand) (*FaultPlan, error) {
	return faults.Generate(cfg, servers, epochs, rng)
}

// SummarizeTrace condenses a traced TTSA run for convergence analysis.
func SummarizeTrace(trace []TracePoint) (TraceSummary, error) {
	return analysis.Summarize(trace)
}

// CompareTraces reports how much faster trace a reaches the weaker of the
// two final utilities than trace b.
func CompareTraces(a, b []TracePoint) (TraceComparison, error) {
	return analysis.Compare(a, b)
}

// RunFigure reproduces one paper figure ("fig3".."fig9"), returning one
// table per panel.
func RunFigure(figure string, opts ExperimentOptions) ([]FigureTable, error) {
	return experiment.Run(figure, opts)
}

// ErrWrongShard is the typed rejection of a request routed to a coordinator
// shard that does not own the request's cell (a stale assignment table or a
// mis-configured client). It is a fault, not backpressure: retrying the same
// shard is hopeless, so clients must re-resolve their routing instead.
var ErrWrongShard = cran.ErrWrongShard

// CellSites returns the hexagonal cell site layout the coordinator derives
// from params — the layout a ShardClient must be given so client-side
// routing agrees with every shard's own cell resolution.
func CellSites(params Params) []Point {
	return geom.HexLayout(params.NumServers, params.InterSiteKm)
}

// NewShardClient returns a shard-aware client for a coordinator cluster:
// requests are routed by the cell nearest their position to the shard owning
// that cell, over per-shard resilient connections.
func NewShardClient(cfg ShardClientConfig) (*ShardClient, error) {
	return shard.NewClient(cfg)
}

// RunSpec executes a custom sweep from a declarative JSON specification
// (see internal/spec for the format): pick a swept parameter, its values,
// the schemes, the metric and the trial count.
func RunSpec(blob []byte) (FigureTable, error) {
	sp, err := spec.Parse(blob)
	if err != nil {
		return FigureTable{}, err
	}
	return sp.Run()
}
