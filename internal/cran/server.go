package cran

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// ServerConfig parametrizes a coordinator.
type ServerConfig struct {
	// Params describes the managed network (servers, subchannels, radio
	// model) and the defaults applied to requests that omit device
	// capabilities. NumUsers is ignored — the batch defines the users.
	Params scenario.Params
	// BatchWindow is how long the coordinator waits after the first
	// request of an epoch before scheduling it (more requests in one
	// epoch mean better joint decisions).
	BatchWindow time.Duration
	// MaxBatch schedules an epoch immediately once this many requests
	// are pending (0 means S·N, the network's slot capacity).
	MaxBatch int
	// TTSA configures the scheduler; nil means core.DefaultConfig with a
	// bounded evaluation budget suitable for interactive latency.
	TTSA *core.Config
	// Seed drives the coordinator's channel estimator and search.
	Seed uint64
	// Limits are the wire limits every connection is served under: the
	// idle read deadline, the request size cap and the connection cap.
	Limits
	// Workers is the number of solver workers draining the epoch queue.
	// Workers share the stateless schedulers and each owns its reusable
	// epoch scratch, so K workers solve up to K epochs concurrently while
	// the collector keeps batching. Per-epoch results are bit-identical for
	// every worker count (the epoch number and its RNG streams are stamped
	// at enqueue time).
	// Zero defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the solve queue between the batch collector and
	// the workers. A batch flushed while the queue is full is failed
	// immediately with ErrQueueFull (fail-fast backpressure; queued work
	// never grows without bound). Zero defaults to max(4, 2·Workers).
	QueueDepth int
	// DefaultDeadline is the epoch deadline applied to requests that omit
	// DeadlineMs: a decision older than this (measured from arrival) is
	// assumed worthless to the device, so the coordinator refuses admission
	// or expires the request at dequeue instead of solving late. Zero means
	// no default — requests without their own deadline never expire (the
	// historical behaviour).
	DefaultDeadline time.Duration
	// Brownout configures graceful degradation under queue pressure: epochs
	// are solved by progressively cheaper schedulers instead of being shed.
	// Disabled by default.
	Brownout BrownoutConfig
	// SolverChaos, when non-nil, injects deterministic per-epoch solver
	// delays into the workers — the slow-solver fault the chaos harness
	// uses to manufacture overload.
	SolverChaos *faults.SolverChaos
	// Listener, when non-nil, serves on the provided listener instead of
	// binding addr — the hook tests use to interpose chaos wrappers.
	Listener net.Listener
	// Metrics, when non-nil, is the registry the server registers its
	// tsajs_coordinator_* metrics in, letting the embedding process serve
	// them alongside its own (the coordinator CLI's -metrics-addr endpoint).
	// Nil creates a private registry, reachable via Server.Metrics.
	Metrics *obs.Registry
	// Partition, when non-nil, runs the coordinator as one shard of a
	// multi-coordinator cluster: it owns the cells the assignment table maps
	// to its index, rejects everything else (CodeWrongShard), and solves each
	// owned cell as its own epoch with RNG streams derived from (Seed, cell,
	// cell epoch) — bit-identical decisions for any cluster size, worker
	// count, or wire codec. See PartitionConfig and internal/shard.
	Partition *PartitionConfig
	// Portfolio, when non-nil, solves every full-quality epoch that is not a
	// delta repair as a heterogeneous K-chain portfolio (internal/portfolio)
	// instead of a single TTSA chain. With Adaptive set, each epoch's chain
	// budget is reallocated across the member roster by the deterministic
	// UCB selector, fed by the outcomes of epochs at least
	// servingSelectorLag (a constant 32) behind, so plans are a pure
	// function of (Seed, epoch, earlier outcomes) and bit-identical for
	// every worker count and queue depth. A pipeline deeper than the lag
	// (QueueDepth+Workers+1 > 32) makes the collector wait in the selector
	// until the epoch 32 back has been solved. The selector records the
	// epochs the portfolio does not solve as skipped: brownout-degraded
	// epochs (they keep the degradation ladder's truncated/cheap solvers)
	// and delta repair epochs (a repair anneals from the carried incumbent).
	// Chains run sequentially on the owning solver worker (Workers here
	// already parallelizes across epochs).
	Portfolio *solver.PortfolioOptions
	// Delta, when non-nil, enables delta-epoch incremental serving: the
	// coordinator caches each user's gain rows and previous decision,
	// refreshes only users that moved beyond Delta.MoveThresholdKm (or
	// newly appeared), and solves repair epochs with a short anneal scoped
	// to the dirty set — falling back to a full solve, by the portfolio
	// when one is configured, on the Delta cadence/drift/dirty-fraction
	// gates. Per-user RNG streams keep full epochs bit-identical to a
	// threshold-0 coordinator's for any worker count or wire codec. A
	// brownout-degraded epoch is a full solve by its tier that carries no
	// incumbent: the next epoch full-solves. See internal/delta.
	Delta *delta.Config
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.BatchWindow == 0 {
		c.BatchWindow = 50 * time.Millisecond
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = c.Params.NumServers * c.Params.NumChannels
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
		if c.QueueDepth < 4 {
			c.QueueDepth = 4
		}
	}
	return c
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	cc := c.withDefaults()
	if err := cc.Params.Validate(); err != nil {
		return err
	}
	if cc.BatchWindow < 0 {
		return fmt.Errorf("cran: batch window must be non-negative, got %s", cc.BatchWindow)
	}
	if cc.MaxBatch <= 0 {
		return fmt.Errorf("cran: max batch must be positive, got %d", cc.MaxBatch)
	}
	if err := cc.Limits.Validate(); err != nil {
		return err
	}
	if cc.Workers < 0 {
		return fmt.Errorf("cran: worker count must be non-negative, got %d", cc.Workers)
	}
	if cc.QueueDepth < 0 {
		return fmt.Errorf("cran: queue depth must be non-negative, got %d", cc.QueueDepth)
	}
	if cc.DefaultDeadline < 0 {
		return fmt.Errorf("cran: default deadline must be non-negative, got %s", cc.DefaultDeadline)
	}
	if cc.SolverChaos != nil {
		if err := cc.SolverChaos.Validate(); err != nil {
			return err
		}
	}
	if cc.Partition != nil {
		if err := cc.Partition.Validate(cc.Params.NumServers); err != nil {
			return err
		}
	}
	if cc.Delta != nil {
		if err := cc.Delta.Validate(); err != nil {
			return err
		}
	}
	if cc.Portfolio != nil {
		if err := cc.Portfolio.Validate(); err != nil {
			return err
		}
	}
	if cc.TTSA != nil {
		return cc.TTSA.Validate()
	}
	return nil
}

// pending is one request waiting for its epoch.
type pending struct {
	req OffloadRequest
	// sink receives the answer under sinkID, the request ID the request
	// arrived with (always 0 on a JSON connection): the connection's writer
	// in serving, a channel in tests.
	sink   replySink
	sinkID uint64
	// answered guards at-most-once delivery (CAS 0→1 in Server.reply): a
	// recovered panic may leave part of a batch already answered, and
	// failBatch must neither double-send nor deadlock on it. Plain uint32
	// rather than atomic.Bool so pending values stay copyable (batches are
	// built by appending values; the CAS always targets the batch slot).
	answered uint32
	// arrived is when the request was admitted; deadline is when its answer
	// stops being useful (zero: never expires).
	arrived  time.Time
	deadline time.Time
	// cell indexes the request's chain: its serving cell, resolved at
	// admission, on partitioned coordinators; 0 (the network-wide chain)
	// otherwise. The collector groups a flush by cell into epochs.
	cell int
}

// Server is a running coordinator. Create with NewServer, stop with Close.
type Server struct {
	cfg     ServerConfig
	lis     *Listener
	sites   []geom.Point
	servers []scenario.Server
	submit  chan pending
	solveQ  chan epochBatch
	started time.Time

	// chains are the scheduling chains, indexed by pending.cell: one per
	// cell on partitioned coordinators, one network-wide chain otherwise.
	chains []*chain

	// The schedulers, shared by every worker: the full-quality TTSA (also
	// the delta repair anneal), the tier table indexed by epochTier (the
	// degraded entries are nil unless brownout is on), and the portfolio
	// full-tier epochs dispatch to when a plan is stamped, with its
	// per-member telemetry (both nil when Portfolio is off).
	ttsa      *core.TTSA
	tiers     [3]solver.Scheduler
	pf        *portfolio.Portfolio
	pfMetrics *obs.PortfolioMetrics

	// Overload-resilience state: the deterministic brownout controller
	// (owned by the batch collector) and the EWMA service-time estimator
	// behind deadline admission.
	brownout *brownoutController
	wait     waitEstimator

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	metrics   *obs.Registry
	stats     *statsCollector
}

// NewServer starts a coordinator listening on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = 20000
	if cfg.TTSA != nil {
		ttsaCfg = *cfg.TTSA
	}
	ttsa, err := core.New(ttsaCfg)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The epoch scheduler reports per-solve telemetry (stage counts,
	// acceptance balance, threshold activations) into the same registry.
	// Observation is passive and per-epoch, so scheduling results and
	// latency are unchanged.
	solverObs := obs.NewSolverMetrics(reg)
	ttsa = ttsa.WithObserver(solverObs)
	s := &Server{
		cfg:     cfg,
		ttsa:    ttsa,
		sites:   geom.HexLayout(cfg.Params.NumServers, cfg.Params.InterSiteKm),
		submit:  make(chan pending),
		solveQ:  make(chan epochBatch, cfg.QueueDepth),
		quit:    make(chan struct{}),
		metrics: reg,
		stats:   newStatsCollector(reg),
		started: time.Now(),
	}
	// Degraded-tier solvers exist only when brownout is on, so a disabled
	// coordinator carries zero extra state on the serving path.
	s.tiers[tierFull] = ttsa
	if cfg.Brownout.Enabled {
		// The truncated tier anneals on an eighth of the full budget, at
		// least 500 evaluations; the cheap tier uses the baseline defaults.
		truncCfg := ttsaCfg
		truncCfg.MaxEvaluations = max(500, ttsaCfg.MaxEvaluations/8)
		truncated, err := core.New(truncCfg)
		if err != nil {
			return nil, err
		}
		s.tiers[tierTruncated] = truncated.WithObserver(solverObs)
		s.tiers[tierCheap] = &baseline.Cheap{}
	}
	// The MEC server descriptors are static for the server's lifetime:
	// build the slice once here instead of once per epoch, and let every
	// solver worker's epoch scenario share it read-only.
	s.servers = make([]scenario.Server, len(s.sites))
	for i, pos := range s.sites {
		s.servers[i] = scenario.Server{Pos: pos, FHz: cfg.Params.ServerFreqHz}
	}
	s.brownout = newBrownoutController(cfg.Brownout, cfg.QueueDepth)
	newSelector := func() *portfolio.Selector { return nil }
	if po := cfg.Portfolio; po != nil {
		// Chains run sequentially on the owning solver worker: the server's
		// Workers already parallelize across epochs, so parallel chains per
		// epoch would only oversubscribe the CPU.
		pfOpts := *po
		pfOpts.Workers = 1
		pf, err := portfolio.Wrap(ttsa, pfOpts)
		if err != nil {
			return nil, err
		}
		s.pfMetrics = obs.NewPortfolioMetrics(reg)
		s.pf = pf.WithObserver(solverObs).WithMemberObserver(s.pfMetrics)
		if pfOpts.Adaptive {
			newSelector = func() *portfolio.Selector {
				return portfolio.NewSelector(s.pf.Members(), pfOpts.Chains, servingSelectorLag)
			}
		}
	}
	root := simrand.New(cfg.Seed)
	if pc := cfg.Partition; pc == nil {
		s.chains = []*chain{newChain(-1, root, cfg.Delta, newSelector())}
	} else {
		// Partitioned epochs see a one-site scenario, so each cell is its
		// own chain with single-site rows.
		s.chains = make([]*chain, len(s.sites))
		for c := range s.chains {
			s.chains[c] = newChain(c, root.Derive(cellStreamLabel+uint64(c)), cfg.Delta, newSelector())
		}
		s.stats.shardIndex.Set(float64(pc.Index))
		s.stats.shardCount.Set(float64(pc.Shards))
		s.stats.cellsOwned.Set(float64(len(pc.OwnedCells())))
	}
	s.stats.workers.Set(float64(cfg.Workers))
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("cran: listen: %w", err)
		}
	}
	s.lis = Serve(ln, cfg.Limits, reg, "coordinator", s.dispatch)
	s.wg.Add(1 + cfg.Workers)
	go s.batchLoop()
	for i := 0; i < cfg.Workers; i++ {
		go s.newSolveWorker().loop()
	}
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Close stops accepting connections, fails pending requests, and waits for
// all server goroutines to exit. It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.quit)
		// Wake any worker parked in a chain's acquire — the collector is
		// about to close the solve queue and those epochs will never be
		// solved — and any collector parked in a selector's Plan wait.
		for _, ch := range s.chains {
			ch.close()
		}
		err = s.lis.Close()
		s.wg.Wait()
	})
	return err
}

// dispatch is the coordinator's Handler: it validates and schedules one
// decoded request, whichever codec carried it, and answers it through a: at
// once when it is rejected or a health probe, after its epoch otherwise.
func (s *Server) dispatch(req OffloadRequest, a Answer) {
	s.applyDefaults(&req)
	if err := req.Validate(); err != nil {
		// The Listener has already answered unsupported versions, so every
		// rejection here predates the typed codes and carries none.
		s.stats.requestRejected()
		a.Send(OffloadResponse{Version: ProtocolVersion, UserID: req.UserID, Error: err.Error()})
		return
	}
	if req.Type == TypeHealth {
		a.Send(s.handleHealth(req))
		return
	}
	p := pending{req: req, sink: a.sink, sinkID: a.id, arrived: time.Now()}
	if resp, ok := s.admit(&p); !ok {
		a.Send(resp)
	}
}

// admit applies deadline admission control to p and hands it to the batch
// collector. When the request cannot enter batching, the immediate answer
// is returned with ok=false; otherwise the collector owns a copy of p and
// exactly one response will later arrive through p's sink.
func (s *Server) admit(p *pending) (resp OffloadResponse, ok bool) {
	if s.cfg.Partition != nil {
		// Ownership is checked here, at the choke point shared by both wire
		// codecs: a request for a cell another shard owns is answered typed
		// (CodeWrongShard) before it can enter batching.
		cell, resp, ok := s.partitionCell(p.req)
		if !ok {
			return resp, false
		}
		p.cell = cell
	}
	if budget := s.deadlineBudget(p.req); budget > 0 {
		p.deadline = p.arrived.Add(budget)
		// Admission control: when the estimated queue wait (EWMA epoch
		// service time × epochs ahead) already exceeds the request's whole
		// budget, answering now — while the device can still fall back to
		// local execution — beats solving late. The estimate is advisory
		// and lock-free; a request it admits can still expire at dequeue.
		if est := s.wait.estimate(len(s.solveQ) + 1); est > budget {
			s.stats.requestShed(CodeAdmission)
			return OffloadResponse{
				Version: ProtocolVersion,
				UserID:  p.req.UserID,
				Error: fmt.Sprintf("%s: estimated wait %s exceeds deadline %s",
					ErrAdmissionRejected.Error(), est.Round(time.Millisecond), budget),
				Code: CodeAdmission,
			}, false
		}
	}
	// Count the request before handing it to the batcher: once the send
	// succeeds the epoch goroutine may schedule it (incrementing the
	// decision counters) at any moment, and the Offloaded+Local ≤ Requests
	// snapshot invariant needs Requests to be visible first.
	s.stats.requestEntered()
	select {
	case s.submit <- *p:
		return OffloadResponse{}, true
	case <-s.quit:
		s.stats.requestRejected()
		return OffloadResponse{Version: ProtocolVersion, UserID: p.req.UserID, Error: "coordinator shutting down", Code: CodeShutdown}, false
	}
}

// deadlineBudget resolves a request's deadline budget: its own DeadlineMs
// when set, the coordinator's DefaultDeadline otherwise; zero means the
// request never expires.
func (s *Server) deadlineBudget(req OffloadRequest) time.Duration {
	if req.DeadlineMs > 0 {
		return time.Duration(req.DeadlineMs * float64(time.Millisecond))
	}
	return s.cfg.DefaultDeadline
}

// handleHealth answers a TypeHealth probe with uptime and a counter
// snapshot. A shutting-down coordinator reports an error instead, so probes
// cannot mistake a dying server for a healthy one.
func (s *Server) handleHealth(req OffloadRequest) OffloadResponse {
	select {
	case <-s.quit:
		return OffloadResponse{Version: ProtocolVersion, UserID: req.UserID, Error: "coordinator shutting down", Code: CodeShutdown}
	default:
	}
	s.stats.healthServed()
	return OffloadResponse{
		Version: ProtocolVersion,
		UserID:  req.UserID,
		Health: &Health{
			UptimeS:     time.Since(s.started).Seconds(),
			ActiveConns: int(s.stats.activeConns.Value()),
			Stats:       s.Stats(),
		},
	}
}

func (s *Server) applyDefaults(req *OffloadRequest) {
	p := s.cfg.Params
	if req.FLocalHz == 0 {
		req.FLocalHz = p.UserFreqHz
	}
	if req.TxPowerW == 0 {
		req.TxPowerW = units.DBmToWatts(p.TxPowerDBm)
	}
	if req.Kappa == 0 {
		req.Kappa = p.Kappa
	}
	if req.BetaTime == 0 && req.BetaEnergy == 0 {
		req.BetaTime = p.BetaTime
		req.BetaEnergy = 1 - p.BetaTime
	}
	if req.Lambda == 0 {
		req.Lambda = p.Lambda
	}
}

// batchLoop is the pipeline's pure collector: it groups submissions into
// epochs and hands each epoch to the bounded solve queue instead of solving
// inline, so collecting the next batch overlaps the solve of the previous
// one. The epoch number, its solver stream and its gain key are stamped
// here, at enqueue time — they read only the chain's seed, so they are
// independent of which worker eventually solves the batch.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	var (
		batch []pending
		timer *time.Timer
		fire  <-chan time.Time
	)
	flush := func() {
		if len(batch) > 0 {
			s.enqueue(batch)
			batch = nil
		}
		if timer != nil {
			timer.Stop()
			timer = nil
		}
		fire = nil
	}
	for {
		select {
		case p := <-s.submit:
			// The collector is the single choke point every admitted request
			// passes through, whichever protocol carried it: count it in
			// flight here, and let the at-most-once reply path decrement.
			s.stats.inflightReqs.Add(1)
			batch = append(batch, p)
			if len(batch) >= s.cfg.MaxBatch {
				flush()
				continue
			}
			if timer == nil {
				timer = time.NewTimer(s.cfg.BatchWindow)
				fire = timer.C
			}
		case <-fire:
			timer = nil
			fire = nil
			flush()
		case <-s.quit:
			// Fail whatever is still collecting, then close the solve
			// queue: the workers drain it, failing every queued batch.
			s.failBatch(batch, CodeShutdown, "coordinator shutting down")
			close(s.solveQ)
			return
		}
	}
}

// enqueue splits a flushed batch by chain (pending.cell, always 0 on an
// unpartitioned coordinator), stamps each part as its chain's next epoch and
// offers it to the solve queue. Chains are flushed in ascending cell order
// and requests keep their arrival order within a chain (the solver re-sorts
// by user ID anyway). A full queue fails the epoch immediately
// (ErrQueueFull): the coordinator sheds load at the epoch boundary rather
// than queueing unboundedly or stalling collection.
//
// The brownout tier is observed once per flush and stamped on every epoch
// of the flush: it is a pure function of the queue-depth sequence seen at
// successive flushes, so the same arrival trace always degrades the same
// epochs, regardless of worker count or solve timing.
func (s *Server) enqueue(batch []pending) {
	tier := s.brownout.observe(len(s.solveQ))
	slices.SortStableFunc(batch, func(a, b pending) int { return a.cell - b.cell })
	now := time.Now()
	for start := 0; start < len(batch); {
		end := start
		for end < len(batch) && batch[end].cell == batch[start].cell {
			end++
		}
		eb := epochBatch{batch: batch[start:end:end], tier: tier, collected: now}
		s.chains[batch[start].cell].stamp(&eb)
		eb.plan = s.planEpoch(eb)
		select {
		case s.solveQ <- eb:
			s.stats.queueDepth.Set(float64(len(s.solveQ)))
		default:
			s.stats.epochRejected()
			// A rejected epoch never reaches a worker: tell the chain so
			// workers sequenced behind it do not wait forever, and record the
			// skip with the selector so the learning prefix stays contiguous.
			eb.ch.skip(eb.epoch)
			eb.skipPlan()
			s.failBatch(eb.batch, CodeQueueFull, ErrQueueFull.Error())
		}
		start = end
	}
}

// planEpoch stamps an epoch's portfolio plan in the collector goroutine,
// next to the tier and RNG stamps. Full-tier epochs get the selector's
// allocation (or the fixed round-robin plan when the selector is off);
// brownout-degraded epochs return nil — they keep the degradation ladder's
// truncated/cheap solvers, and the selector records them as skipped so its
// learning prefix stays contiguous without fighting the ladder. A nil plan
// (portfolio off, degraded tier, or selector closed by shutdown) dispatches
// the epoch to its tier's scheduler.
func (s *Server) planEpoch(eb epochBatch) []int {
	if s.pf == nil {
		return nil
	}
	sel := eb.ch.sel
	if eb.tier != tierFull {
		if sel != nil {
			sel.Skip(eb.epoch)
		}
		return nil
	}
	if sel == nil {
		return s.pf.FixedPlan()
	}
	return sel.Plan(eb.epoch, eb.solveRNG)
}

// failBatch answers every request in the batch with the same typed error.
func (s *Server) failBatch(batch []pending, code, msg string) {
	for i := range batch {
		p := &batch[i]
		if s.reply(p, OffloadResponse{Version: ProtocolVersion, UserID: p.req.UserID, Error: msg, Code: code}) {
			s.stats.requestShed(code)
		}
	}
}

// reply delivers a response at most once and never blocks: the answered CAS
// targets the batch slot itself, so if a recovered panic left part of a
// batch already answered, failBatch neither double-sends nor double-counts.
// It reports whether this call delivered the answer.
func (s *Server) reply(p *pending, resp OffloadResponse) bool {
	if !atomic.CompareAndSwapUint32(&p.answered, 0, 1) {
		return false
	}
	s.stats.inflightReqs.Add(-1)
	p.sink.send(p.sinkID, resp)
	return true
}
