package cran

import (
	"sync"

	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/simrand"
)

// Every serving epoch belongs to one chain: the whole network on an
// unpartitioned coordinator, one cell on a partitioned one. The chain
// numbers its epochs, derives their streams, and carries whatever the
// configured features keep across epochs: the adaptive portfolio's
// selector and the delta engine's state.
//
// Delta serving drives internal/delta's engine: the chain's delta.State
// keeps per-user gain rows, positions and carried slots, plans every
// epoch's batch into dirty and clean users, and solves repair epochs with a
// short anneal scoped to the dirty set starting from the carried incumbent.
// Full solves happen on a configurable cadence and whenever a
// drift/dirty-fraction gate trips — see delta.Config. Correctness hinges on
// two disciplines:
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
//   - Chain sequencing. The state is carried across epochs, so the epochs
//     of a delta chain must be solved in epoch order even when several
//     solver workers drain the queue. A worker acquires the chain for its
//     stamped epoch number, waiting until every earlier epoch of the chain
//     has been solved or skipped, and owns the state exclusively until it
//     advances the cursor. A chain without state is never sequenced, so a
//     plain coordinator's workers solve its epochs concurrently.

// chain is one scheduling chain. epoch is owned by the batch collector;
// state by whichever worker holds the chain between acquire and advance;
// the sequencer fields (next, skipped, closed) are guarded by mu.
type chain struct {
	// cell is the cell the chain schedules, -1 for the whole network.
	cell  int
	epoch uint64
	// base seeds the chain's epoch streams. It is a pure function of (Seed,
	// cell), so every shard of a same-seed cluster — and a lone K=1
	// coordinator — derives identical streams for a given cell.
	base *simrand.Source
	// sel plans the chain's full epochs; nil unless the portfolio is
	// adaptive.
	sel *portfolio.Selector
	// state is the delta engine's cross-epoch state; nil unless delta
	// serving is on.
	state *delta.State[string]

	mu      sync.Mutex
	cond    *sync.Cond
	next    uint64
	skipped map[uint64]struct{}
	closed  bool
}

func newChain(cell int, base *simrand.Source, dcfg *delta.Config, sel *portfolio.Selector) *chain {
	ch := &chain{cell: cell, base: base, sel: sel, next: 1, skipped: make(map[uint64]struct{})}
	ch.cond = sync.NewCond(&ch.mu)
	if dcfg != nil {
		ch.state = delta.NewState[string](*dcfg)
	}
	return ch
}

// stamp numbers the chain's next epoch and derives its solver stream and
// gain key.
func (ch *chain) stamp(eb *epochBatch) {
	ch.epoch++
	eb.ch, eb.epoch = ch, ch.epoch
	eb.solveRNG = ch.base.Derive(ch.epoch)
	eb.gainKey = simrand.Key(ch.base.Seed(), ch.epoch^gainStreamLabel)
}

// acquire blocks until the chain's cursor reaches epoch, giving the caller
// exclusive ownership of the chain state until advance. It returns false
// when the chain is closed (server shutting down). Chains without state
// return at once.
func (ch *chain) acquire(epoch uint64) bool {
	if ch.state == nil {
		return true
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for ch.next != epoch && !ch.closed {
		ch.cond.Wait()
	}
	return !ch.closed
}

// advance moves the cursor past the acquired epoch and past any epochs
// already marked skipped, waking waiters.
func (ch *chain) advance() {
	if ch.state == nil {
		return
	}
	ch.mu.Lock()
	ch.next++
	ch.drainLocked()
	ch.mu.Unlock()
}

// skip marks an epoch that will never reach a worker (its batch was failed
// at the solve-queue cap), so workers waiting on later epochs of the chain
// do not deadlock. Called from the collector goroutine.
func (ch *chain) skip(epoch uint64) {
	if ch.state == nil {
		return
	}
	ch.mu.Lock()
	ch.skipped[epoch] = struct{}{}
	ch.drainLocked()
	ch.mu.Unlock()
}

func (ch *chain) drainLocked() {
	for {
		if _, ok := ch.skipped[ch.next]; !ok {
			break
		}
		delete(ch.skipped, ch.next)
		ch.next++
	}
	ch.cond.Broadcast()
}

// close wakes every sequencer waiter with a shutdown verdict and unblocks a
// collector parked in the selector's Plan wait (a nil plan falls back to the
// single-chain solver for the final epochs).
func (ch *chain) close() {
	ch.mu.Lock()
	ch.closed = true
	ch.cond.Broadcast()
	ch.mu.Unlock()
	if ch.sel != nil {
		ch.sel.Close()
	}
}
