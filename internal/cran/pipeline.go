package cran

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// ErrQueueFull is reported (as the response Error of every request in the
// batch) when an epoch is flushed while the solve queue is at capacity. The
// coordinator fails the batch immediately — fail-fast backpressure — rather
// than buffering unboundedly or blocking collection of the next epoch.
var ErrQueueFull = errors.New("cran: solve queue full, epoch rejected")

// gainStreamLabel separates an epoch's channel-estimation streams from its
// solver stream.
const gainStreamLabel = 0xc51

// epochBatch is one collected epoch in flight between the batch collector
// and a solver worker. The epoch number, the solver stream and the gain key
// are stamped at enqueue time (chain.stamp): they depend only on the
// chain's seed, so stamping at collection is bit-identical to deriving at
// solve time, and per-epoch results do not depend on which worker solves
// the batch or when.
type epochBatch struct {
	// ch is the chain the epoch belongs to. A cell's epoch solves a
	// one-site scenario, and epoch numbers count per chain.
	ch       *chain
	epoch    uint64
	batch    []pending
	tier     epochTier
	solveRNG *simrand.Source
	// gainKey keys the epoch's per-user gain streams: user u's row is drawn
	// from simrand.Stream(simrand.Key(gainKey, fnv64(u))).
	gainKey   uint64
	collected time.Time
	// plan, when non-nil, routes this full-tier epoch, if it solves in
	// full, through the heterogeneous portfolio: slot i runs roster member
	// plan[i]. Stamped in the collector (fixed round-robin, or the adaptive
	// selector's allocation); nil epochs dispatch to their tier's scheduler.
	plan []int
	// dequeued is stamped by the solver worker when it picks the epoch up —
	// after any injected chaos delay, immediately before the expiry filter.
	// It is the reference time of the "no deadline-expired full solves"
	// invariant.
	dequeued time.Time
}

// skipPlan tells the epoch's selector that a planned epoch produced no
// outcomes (shed, expired, failed, repaired, or aborted by shutdown). No-op
// for unplanned epochs and in fixed mode; duplicate skips are ignored by
// the selector, so racing a recovered panic against shutdown is safe.
func (eb epochBatch) skipPlan() {
	if eb.plan != nil && eb.ch.sel != nil {
		eb.ch.sel.Skip(eb.epoch)
	}
}

// commitPlan delivers a planned epoch's member outcomes to its selector.
func (eb epochBatch) commitPlan(outcomes []solver.MemberOutcome) {
	if eb.plan != nil && outcomes != nil && eb.ch.sel != nil {
		eb.ch.sel.Commit(eb.epoch, outcomes)
	}
}

// solveWorker is one epoch-solving goroutine. Workers share the server's
// stateless schedulers; each owns a private set of reusable epoch buffers
// (user, position and ID slices, the gain-tensor backing array, the gain
// row stream, one Scenario value whose derived tables Finalize recycles),
// so workers solve concurrently without sharing mutable state and the
// steady-state epoch path stops allocating once the scratch has grown to
// the configured MaxBatch.
type solveWorker struct {
	srv *Server

	users     []scenario.User
	positions []geom.Point
	ids       []string
	gainBuf   []float64
	row       *simrand.Source
	sc        scenario.Scenario
}

func (s *Server) newSolveWorker() *solveWorker {
	return &solveWorker{srv: s, row: simrand.Stream(0)}
}

// rowStream re-keys the worker's row stream to user i's gain stream for the
// epoch, a pure function of (seed, epoch, user ID).
func (w *solveWorker) rowStream(eb epochBatch, i int) *simrand.Source {
	w.row.Rekey(simrand.Key(eb.gainKey, fnv64(eb.batch[i].req.UserID)))
	return w.row
}

// fnv64 is FNV-1a over the user ID — the label deriving a user's per-epoch
// gain stream, chosen so the stream depends on the ID alone (not on the
// user's index in the sorted batch, which varies with the request set).
func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// loop drains the solve queue until the collector closes it. A batch queued
// behind a slow solve when the server shuts down is failed, not solved:
// drain-on-Close answers every queued request with a shutdown error so no
// client hangs on a reply that will never come.
func (w *solveWorker) loop() {
	s := w.srv
	defer s.wg.Done()
	for eb := range s.solveQ {
		s.stats.queueDepth.Set(float64(len(s.solveQ)))
		select {
		case <-s.quit:
			eb.skipPlan()
			s.failBatch(eb.batch, CodeShutdown, "coordinator shutting down")
			continue
		default:
		}
		started := time.Now()
		if !s.chaosDelay(eb.epoch, started) {
			eb.skipPlan()
			s.failBatch(eb.batch, CodeShutdown, "coordinator shutting down")
			continue
		}
		// A delta chain's epochs mutate its state, so the worker must own
		// the chain for its stamped epoch number before touching the batch —
		// acquire blocks until every earlier epoch of the chain was solved
		// or skipped, and advance releases it whatever happened in between
		// (an expired-empty epoch included). Both are no-ops on chains
		// without state.
		if !eb.ch.acquire(eb.epoch) {
			s.failBatch(eb.batch, CodeShutdown, "coordinator shutting down")
			continue
		}
		// Expired requests are answered here, at dequeue, before any solving
		// starts: a worker is never burned on a solve whose answer could not
		// arrive in time, and the "no deadline-expired full solves" invariant
		// is structural rather than raced.
		eb.dequeued = time.Now()
		eb.batch = w.expireBatch(eb)
		if len(eb.batch) == 0 {
			eb.ch.advance()
			eb.skipPlan()
			s.stats.epochExpired()
			s.noteServiceTime(started)
			continue
		}
		s.stats.inflight.Add(1)
		w.solveEpochSafe(eb)
		eb.ch.advance()
		s.stats.inflight.Add(-1)
		s.noteServiceTime(started)
	}
}

// chaosDelay sleeps the injected slow-solver delay for the epoch, if any,
// aborting on shutdown. It reports whether the worker should proceed with
// the epoch.
func (s *Server) chaosDelay(epoch uint64, at time.Time) bool {
	d := s.cfg.SolverChaos.DelayFor(epoch, at)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.quit:
		return false
	}
}

// noteServiceTime feeds the admission estimator one epoch's dequeue-to-done
// service time (injected chaos delay included — a delayed worker holds the
// queue exactly like a slow solve) and refreshes the wait-estimate gauge.
func (s *Server) noteServiceTime(started time.Time) {
	s.wait.note(time.Since(started).Seconds())
	s.stats.queueWaitEst.Set(s.wait.estimate(len(s.solveQ) + 1).Seconds())
}

// expireBatch answers every request whose deadline passed while the epoch
// waited in the solve queue (CodeExpired) and returns the still-live
// remainder, filtered in place.
func (w *solveWorker) expireBatch(eb epochBatch) []pending {
	live := eb.batch[:0]
	for i := range eb.batch {
		p := &eb.batch[i]
		if !p.deadline.IsZero() && eb.dequeued.After(p.deadline) {
			if w.srv.reply(p, OffloadResponse{
				Version: ProtocolVersion,
				UserID:  p.req.UserID,
				Error:   ErrDeadlineExceeded.Error(),
				Code:    CodeExpired,
			}) {
				w.srv.stats.requestShed(CodeExpired)
			}
			continue
		}
		live = append(live, *p)
	}
	return live
}

// solveEpochSafe confines a panic in the scheduling path to the epoch that
// caused it: the batch is failed with an error response and the worker keeps
// serving subsequent epochs. The selector skip is idempotent, so a panic
// after a successful commit cannot double-count the epoch.
func (w *solveWorker) solveEpochSafe(eb epochBatch) {
	defer func() {
		if r := recover(); r != nil {
			w.srv.stats.panics.Inc()
			w.failEpoch(eb, fmt.Sprintf("internal error: %v", r))
		}
	}()
	w.solveEpoch(eb)
}

// failEpoch fails an epoch the worker holds the chain for: the selector
// records its plan as skipped, a delta state forgets its incumbent (the
// next epoch full-solves), and every request is answered with msg.
func (w *solveWorker) failEpoch(eb epochBatch, msg string) {
	eb.skipPlan()
	if st := eb.ch.state; st != nil {
		st.Skip(true)
	}
	w.srv.failBatch(eb.batch, CodeInternal, msg)
}

// solveEpoch builds the epoch scenario from the batched requests, solves
// it, and answers every request. The chain's delta state, when there is
// one, plans the epoch: a full epoch redraws every gain row and calls
// schedule; a repair epoch redraws the dirty rows only and anneals them
// from the carried incumbent. Without state every epoch is full. A
// brownout-degraded epoch is a full solve by its tier that the state does
// not carry: the next epoch full-solves.
func (w *solveWorker) solveEpoch(eb epochBatch) {
	s := w.srv
	if eb.tier == tierFull {
		// Invariant tripwire: the dequeue filter already dropped every
		// request expired at eb.dequeued, so a full-quality solve can never
		// include one. The counter exists so the chaos harness can assert
		// that independently — it fires only if a future change reorders the
		// serving path.
		for _, p := range eb.batch {
			if !p.deadline.IsZero() && eb.dequeued.After(p.deadline) {
				s.stats.fullSolveExpired()
			}
		}
	}
	// Sort by user ID before solving: with per-user gain streams the
	// decision vector is then a pure function of the request *set*, not of
	// arrival interleaving — the differential harnesses compare
	// coordinators whose requests race in over many connections.
	slices.SortStableFunc(eb.batch, func(a, b pending) int {
		return strings.Compare(a.req.UserID, b.req.UserID)
	})
	pos := func(i int) geom.Point { return eb.batch[i].req.Pos }
	rng := func(i int) *simrand.Source { return w.rowStream(eb, i) }
	st := eb.ch.state
	plan := delta.Plan{Full: true}
	if st != nil {
		w.ids = w.ids[:0]
		for i := range eb.batch {
			w.ids = append(w.ids, eb.batch[i].req.UserID)
		}
		if eb.tier != tierFull {
			// Drop the incumbent first, so the plan is full (reason reset)
			// and redraws every row.
			st.Skip(true)
		}
		// Chain epochs count from 1; the cadence index counts from 0, so
		// chain epochs 1, 1+FullEvery, ... are the cadence full solves.
		plan = st.Plan(int(eb.epoch-1), w.ids, pos, nil)
	}

	p := s.cfg.Params
	reused := 0
	sc, err := w.buildScenario(eb, func(gain radio.GainTensor, sites []geom.Point) (err error) {
		if st != nil {
			reused, err = st.Gains(plan, w.ids, gain, p.PathLoss, sites, pos, rng)
			return err
		}
		for i := range eb.batch {
			if err := gain.RefreshUser(p.PathLoss, i, pos(i), sites, rng(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		w.failEpoch(eb, "epoch scenario: "+err.Error())
		return
	}

	var res solver.Result
	var outcomes []solver.MemberOutcome
	if plan.Full {
		res, outcomes, err = w.schedule(eb, sc)
	} else {
		// The selector plans full epochs only.
		eb.skipPlan()
		var incumbent *assign.Assignment
		if incumbent, err = st.Incumbent(sc, w.ids); err == nil {
			res, err = st.Repair(sc, eb.solveRNG, s.ttsa, incumbent, plan.Dirty)
		}
	}
	if err != nil {
		w.failEpoch(eb, "scheduling: "+err.Error())
		return
	}
	if err := solver.Verify(sc, res); err != nil {
		w.failEpoch(eb, "verification: "+err.Error())
		return
	}
	// Commit before answering: the selector's learning prefix must include
	// this epoch before any later epoch's plan can depend on it.
	eb.commitPlan(outcomes)
	if st != nil {
		if eb.tier == tierFull {
			st.Commit(w.ids, res.Assignment)
		} else {
			st.Skip(true)
		}
		st.Evict()
		s.stats.deltaEpoch(plan.Full, plan.Rows(len(w.ids)), reused)
	}
	w.finishEpoch(eb, sc, res)
}

// finishEpoch evaluates the verified epoch result, records the epoch in the
// stats, and answers every request of the batch.
func (w *solveWorker) finishEpoch(eb epochBatch, sc *scenario.Scenario, res solver.Result) {
	s := w.srv
	rep := objective.New(sc).Evaluate(res.Assignment)
	s.stats.epochScheduled(len(eb.batch), res.Assignment.Offloaded(), res.Elapsed, res.Utility)
	s.stats.epochDegraded(eb.tier)
	s.stats.epochLatency.Observe(time.Since(eb.collected).Seconds())
	var tier string
	if eb.tier != tierFull {
		tier = eb.tier.wire()
	}
	for i := range eb.batch {
		p := &eb.batch[i]
		m := rep.Users[i]
		// A partitioned epoch solves a one-site scenario, so the scheduler's
		// server index is always 0; the wire carries the global cell ID so
		// clients see the same decision a whole-network coordinator returns.
		srv := m.Server
		if eb.ch.cell >= 0 && m.Offloaded {
			srv = eb.ch.cell
		}
		s.reply(p, OffloadResponse{
			Version:         ProtocolVersion,
			UserID:          p.req.UserID,
			Tier:            tier,
			Offload:         m.Offloaded,
			Server:          srv,
			Channel:         m.Channel,
			FUsHz:           m.FUsHz,
			ExpectedDelayS:  m.DelayS,
			ExpectedEnergyJ: m.EnergyJ,
			Utility:         m.Utility,
			Epoch:           eb.epoch,
		})
	}
}

// schedule solves a full epoch: through the portfolio when a plan is
// stamped (returning the per-slot member outcomes for the selector and
// telemetry), otherwise by the scheduler of the epoch's quality tier. The
// tier is decided at enqueue by the brownout controller; only full-tier
// epochs carry a plan.
func (w *solveWorker) schedule(eb epochBatch, sc *scenario.Scenario) (solver.Result, []solver.MemberOutcome, error) {
	if eb.plan != nil {
		return w.srv.pf.SolvePlan(sc, eb.solveRNG, nil, eb.plan)
	}
	res, err := w.srv.tiers[eb.tier].Schedule(sc, eb.solveRNG)
	return res, nil, err
}

// buildScenario assembles a one-epoch scenario from the batch into the
// worker's scratch buffers; fill writes every user's gain block into the
// tensor, given the epoch's sites and the loaded positions (w.positions).
// Each redrawn row comes from the coordinator's calibrated path-loss model
// (the simulator stand-in for measured CSI) on the user's gain stream; a
// delta repair copies the clean rows from the chain's row cache.
func (w *solveWorker) buildScenario(eb epochBatch, fill func(gain radio.GainTensor, sites []geom.Point) error) (*scenario.Scenario, error) {
	s := w.srv
	p := s.cfg.Params
	sites, servers := s.sites, s.servers
	if cell := eb.ch.cell; cell >= 0 {
		// One-cell epoch: the scenario sees only the owning site, so the
		// solve is exactly the whole-network problem restricted to this cell
		// (the objective couples users only through their serving site).
		sites = s.sites[cell : cell+1]
		servers = s.servers[cell : cell+1]
	}
	n := len(eb.batch)
	if cap(w.users) < n {
		w.users = make([]scenario.User, n)
		w.positions = make([]geom.Point, n)
	}
	w.users = w.users[:n]
	w.positions = w.positions[:n]
	for i, pd := range eb.batch {
		w.positions[i] = pd.req.Pos
		w.users[i] = scenario.User{
			Pos:        pd.req.Pos,
			Task:       pd.req.Task,
			FLocalHz:   pd.req.FLocalHz,
			TxPowerW:   pd.req.TxPowerW,
			Kappa:      pd.req.Kappa,
			BetaTime:   pd.req.BetaTime,
			BetaEnergy: pd.req.BetaEnergy,
			Lambda:     pd.req.Lambda,
		}
	}
	gain := radio.TensorInto(w.gainBuf, n, len(sites), p.NumChannels)
	w.gainBuf = gain.Data()
	if err := fill(gain, sites); err != nil {
		return nil, err
	}
	w.sc.Users = w.users
	w.sc.Servers = servers
	w.sc.Gain = gain
	w.sc.Model = p.PathLoss
	w.sc.NumChannels = p.NumChannels
	w.sc.BandwidthHz = p.BandwidthHz
	w.sc.NoiseW = units.DBmToWatts(p.NoiseDBm)
	w.sc.DownlinkRateBps = p.DownlinkRateBps
	w.sc.Seed = s.cfg.Seed
	if err := w.sc.Finalize(); err != nil {
		return nil, err
	}
	return &w.sc, nil
}
