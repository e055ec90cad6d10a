package cran

import (
	"sync"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// Delta-epoch serving drives internal/delta's engine: each chain keeps a
// delta.State of per-user gain rows, positions and carried slots, plans
// every epoch's batch into dirty and clean users, and solves repair epochs
// with a short anneal scoped to the dirty set starting from the carried
// incumbent. Full solves happen on a configurable cadence and whenever a
// drift/dirty-fraction gate trips — see delta.Config.
//
// Correctness hinges on two disciplines:
//
//   - Per-user gain streams. Every epoch, delta or not, draws a user's
//     gain block from the worker's row stream re-keyed to
//     simrand.Key(eb.gainKey, fnv64(UserID)) — a pure function of (seed,
//     epoch, user ID) — after solveEpoch sorted the batch by user ID. An
//     epoch's scenario is therefore a function of the request *set*, not
//     of arrival order, worker count, or which earlier epochs refreshed
//     which rows. Full epochs of a delta coordinator are bit-identical to
//     the same epochs of a threshold-0 coordinator (which full-solves
//     every epoch) and of a plain coordinator, which is what the
//     differential harness asserts.
//
//   - Chain sequencing. The cache and incumbent are stateful across
//     epochs, so delta epochs of one chain (one cell on partitioned
//     coordinators, the whole network otherwise) must be solved in epoch
//     order even when several solver workers drain the queue. deltaChain
//     is that sequencer: a worker acquires the chain for its stamped
//     epoch number, waiting until every earlier epoch of the chain has
//     been solved or skipped, and owns the chain state exclusively until
//     it advances the cursor.

// deltaChain serializes the delta epochs of one scheduling chain and owns
// its cross-epoch state. The sequencer fields (next, skipped, closed) are
// guarded by mu; state is owned by whichever worker holds the chain
// between acquire and advance, so the solve itself runs lock-free.
type deltaChain struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    uint64
	skipped map[uint64]struct{}
	closed  bool

	state *delta.State[string]
}

func newDeltaChain(cfg delta.Config) *deltaChain {
	ch := &deltaChain{
		next:    1,
		skipped: make(map[uint64]struct{}),
		state:   delta.NewState[string](cfg),
	}
	ch.cond = sync.NewCond(&ch.mu)
	return ch
}

// acquire blocks until the chain's cursor reaches epoch, giving the caller
// exclusive ownership of the chain state until advance. It returns false
// when the chain is closed (server shutting down).
func (ch *deltaChain) acquire(epoch uint64) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for ch.next != epoch && !ch.closed {
		ch.cond.Wait()
	}
	return !ch.closed
}

// advance moves the cursor past the acquired epoch and past any epochs
// already marked skipped, waking waiters.
func (ch *deltaChain) advance() {
	ch.mu.Lock()
	ch.next++
	ch.drainSkippedLocked()
	ch.cond.Broadcast()
	ch.mu.Unlock()
}

// skip marks an epoch that will never reach a worker (its batch was failed
// at the solve-queue cap), so workers waiting on later epochs of the chain
// do not deadlock. Called from the collector goroutine.
func (ch *deltaChain) skip(epoch uint64) {
	ch.mu.Lock()
	ch.skipped[epoch] = struct{}{}
	ch.drainSkippedLocked()
	ch.cond.Broadcast()
	ch.mu.Unlock()
}

func (ch *deltaChain) drainSkippedLocked() {
	for {
		if _, ok := ch.skipped[ch.next]; !ok {
			return
		}
		delete(ch.skipped, ch.next)
		ch.next++
	}
}

// close wakes every waiter with a shutdown verdict.
func (ch *deltaChain) close() {
	ch.mu.Lock()
	ch.closed = true
	ch.cond.Broadcast()
	ch.mu.Unlock()
}

// deltaChainFor resolves the chain owning an epoch's state: the cell's
// chain on partitioned coordinators, the single network-wide chain
// otherwise, nil when delta serving is off.
func (s *Server) deltaChainFor(cell int) *deltaChain {
	if s.deltaChains == nil {
		return nil
	}
	if cell < 0 {
		return s.deltaChains[0]
	}
	return s.deltaChains[cell]
}

// deltaSkip tells an epoch's chain the epoch will never be solved. No-op
// when delta serving is off.
func (s *Server) deltaSkip(epoch uint64, cell int) {
	if ch := s.deltaChainFor(cell); ch != nil {
		ch.skip(epoch)
	}
}

func (s *Server) closeDeltaChains() {
	for _, ch := range s.deltaChains {
		ch.close()
	}
}

// solveDeltaEpoch is solveEpoch's incremental sibling: plan the batch
// against the chain's state, refresh only the rows the plan asks for, and
// repair from the carried incumbent unless a fallback gate forces a full
// solve. The caller holds the chain via acquire.
func (w *solveWorker) solveDeltaEpoch(eb epochBatch, ch *deltaChain) {
	s := w.srv
	p := s.cfg.Params
	st := ch.state
	ids := make([]string, len(eb.batch))
	for i := range eb.batch {
		ids[i] = eb.batch[i].req.UserID
	}
	pos := func(i int) geom.Point { return eb.batch[i].req.Pos }
	// Chain epochs count from 1; the cadence index counts from 0, so chain
	// epochs 1, 1+FullEvery, ... are the cadence full solves.
	plan := st.Plan(int(eb.epoch-1), ids, pos, nil)

	reused := 0
	sc, err := w.buildScenario(eb, func(gain radio.GainTensor, sites []geom.Point) error {
		var err error
		reused, err = st.Gains(plan, ids, gain, p.PathLoss, sites, pos, func(i int) *simrand.Source {
			return w.rowStream(eb, i)
		})
		return err
	})
	if err != nil {
		s.failBatch(eb.batch, CodeInternal, "epoch scenario: "+err.Error())
		return
	}

	var res solver.Result
	if plan.Full {
		res, err = w.ttsa.Schedule(sc, eb.solveRNG)
	} else {
		var incumbent *assign.Assignment
		if incumbent, err = st.Incumbent(sc, ids); err == nil {
			res, err = st.Repair(sc, eb.solveRNG, w.ttsa, incumbent, plan.Dirty)
		}
	}
	if err != nil {
		s.failBatch(eb.batch, CodeInternal, "scheduling: "+err.Error())
		return
	}
	if err := solver.Verify(sc, res); err != nil {
		s.failBatch(eb.batch, CodeInternal, "verification: "+err.Error())
		return
	}
	st.Commit(ids, res.Assignment)
	st.Evict()
	s.stats.deltaEpoch(plan.Full, plan.Rows(len(ids)), reused)
	w.finishEpoch(eb, sc, res)
}
