package portfolio

import (
	"math"
	"sync"

	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// selectorLabel derives the selector's exploration stream from an epoch's
// solve RNG. Distinct from chainLabel(+i) so the epsilon draw never aliases
// a chain stream.
const selectorLabel = 0x73656c65 // "sele"

// ucbC is the UCB exploration constant (the classic sqrt(2)).
var ucbC = math.Sqrt2

// epsilon is the per-epoch probability that the plan's last slot is
// replaced by a uniformly random member — the seed-derived exploration
// stream that keeps the bandit from starving a member whose value changes
// mid-run (e.g. when the workload family shifts).
const epsilon = 0.1

// Selector is the deterministic bandit allocating each epoch's chain
// budget across the member roster: a UCB policy over per-member normalized
// utility, learned online from the outcomes of earlier epochs.
//
// Determinism is the contract, and it is structural, not statistical.
// The plan for epoch e is a pure function of
//
//	(epoch RNG, outcomes of epochs first..e-lag)
//
// because Plan(e) blocks until the outcomes of every epoch up to e-lag have
// been committed (or skipped) and folds exactly that prefix — never more —
// into the policy state, in epoch order regardless of the order workers
// deliver them. An outcome that happens to arrive early (a fast worker on a
// lightly loaded run) waits in the buffer until the horizon reaches it, so
// commit timing cannot show through. Since each epoch's outcomes are
// themselves deterministic per seed (chain streams are seed-derived and the
// reduction is chain-index ordered), the whole member schedule is
// reproducible across runs and worker counts. Wall-clock telemetry
// (ElapsedMs) is aggregated for reporting but deliberately never read by
// the policy.
//
// lag is the pipeline depth: how many epochs may be in flight before their
// outcomes must inform planning. Sequential callers use lag 1 (plan e sees
// everything through e-1); the coordinator uses a constant 32, independent
// of its worker count and queue depth, so that plans are too.
type Selector struct {
	members []string
	index   map[string]int
	chains  int
	lag     uint64

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	started bool
	// first is the epoch of the first Plan call; the learning prefix
	// starts there. Outcomes buffered from earlier epochs are dropped.
	first uint64
	// applied counts contiguously applied epochs starting at first.
	applied uint64
	// pending buffers committed outcomes until the planning horizon
	// reaches their epoch; draining strictly by horizon (not by arrival)
	// is what makes the policy state a pure function of the epoch prefix.
	pending map[uint64][]solver.MemberOutcome

	// Policy state: committed plays and summed normalized reward per
	// member, covering exactly the drained prefix. Deterministic fields
	// only. totals aggregates at commit time instead, so reporting covers
	// every outcome including the trailing lag window.
	plays  []uint64
	reward []float64
	totals []solver.MemberTotal
}

// NewSelector builds a selector for the given roster, plan width (chains),
// and pipeline depth (lag, clamped to at least 1).
func NewSelector(members []string, chains, lag int) *Selector {
	if lag < 1 {
		lag = 1
	}
	s := &Selector{
		members: append([]string(nil), members...),
		index:   make(map[string]int, len(members)),
		chains:  chains,
		lag:     uint64(lag),
		pending: make(map[uint64][]solver.MemberOutcome),
		plays:   make([]uint64, len(members)),
		reward:  make([]float64, len(members)),
		totals:  make([]solver.MemberTotal, len(members)),
	}
	for i, m := range s.members {
		s.index[m] = i
		s.totals[i].Member = m
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Members returns the roster the selector allocates over.
func (s *Selector) Members() []string { return append([]string(nil), s.members...) }

// Plan returns epoch e's member-per-slot allocation. rng must be the
// epoch's seed-derived solve stream; Plan reads a derived child of it
// (never rng itself), so planning does not perturb the chain streams. The
// call blocks until every epoch through e-lag has been committed or
// skipped; Close unblocks it with a nil plan.
func (s *Selector) Plan(e uint64, rng *simrand.Source) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		s.started = true
		s.first = e
		for k := range s.pending {
			if k < s.first {
				delete(s.pending, k)
			}
		}
	}
	if e >= s.first+s.lag {
		horizon := e - s.lag
		for !s.closed {
			s.drainLocked(horizon)
			if s.applied >= horizon-s.first+1 {
				break
			}
			s.cond.Wait()
		}
	}
	if s.closed {
		return nil
	}
	return s.planLocked(rng)
}

// planLocked computes the UCB allocation from the applied prefix. Untried
// members score +Inf and are taken in index order, so every member runs at
// least once early; thereafter each slot takes the best mean-plus-bonus
// member, with within-plan virtual counts spreading one epoch's slots
// across near-tied members. Ties break toward the lower member index.
func (s *Selector) planLocked(rng *simrand.Source) []int {
	er := rng.Derive(selectorLabel)
	m := len(s.members)
	n := make([]float64, m)
	total := 0.0
	for i := range n {
		n[i] = float64(s.plays[i])
		total += n[i]
	}
	plan := make([]int, s.chains)
	for slot := range plan {
		pick := 0
		bestV := math.Inf(-1)
		for i := 0; i < m; i++ {
			v := math.Inf(1)
			if n[i] > 0 {
				mean := 0.0
				if s.plays[i] > 0 {
					mean = s.reward[i] / float64(s.plays[i])
				}
				v = mean + ucbC*math.Sqrt(math.Log(total+1)/n[i])
			}
			if v > bestV {
				bestV = v
				pick = i
			}
		}
		plan[slot] = pick
		n[pick]++
		total++
	}
	if len(plan) > 0 && er.Float64() < epsilon {
		plan[len(plan)-1] = er.Intn(m)
	}
	return plan
}

// Commit records epoch e's per-slot outcomes. Out-of-order commits are
// buffered and applied in epoch order; duplicate or pre-horizon epochs are
// ignored, so a caller racing a failure path cannot double-count.
func (s *Selector) Commit(e uint64, outcomes []solver.MemberOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.started {
		if e < s.first || e-s.first < s.applied {
			return
		}
	}
	if _, dup := s.pending[e]; dup {
		return
	}
	if outcomes == nil {
		outcomes = []solver.MemberOutcome{}
	}
	s.pending[e] = outcomes
	s.totalsLocked(outcomes)
	s.cond.Broadcast()
}

// Skip records that epoch e produced no portfolio outcomes — it was shed,
// expired, failed, or served by a brownout tier instead of the portfolio.
// Every stamped epoch must be either Committed or Skipped exactly once (at
// least once; duplicates are ignored), or Plan eventually blocks.
func (s *Selector) Skip(e uint64) { s.Commit(e, nil) }

// drainLocked applies buffered outcomes in contiguous epoch order, but only
// through the given horizon epoch — an outcome committed early waits here
// until a Plan's horizon reaches it.
func (s *Selector) drainLocked(horizon uint64) {
	for {
		e := s.first + s.applied
		if e > horizon {
			return
		}
		outcomes, ok := s.pending[e]
		if !ok {
			return
		}
		delete(s.pending, e)
		s.applyLocked(outcomes)
		s.applied++
	}
}

// applyLocked folds one epoch's outcomes into the policy state. Reward is
// the slot utility normalized by the epoch's best slot utility (clamped to
// [0,1]) so epochs of different sizes weigh equally.
func (s *Selector) applyLocked(outcomes []solver.MemberOutcome) {
	if len(outcomes) == 0 {
		return
	}
	best := 0.0
	for _, o := range outcomes {
		if o.Utility > best {
			best = o.Utility
		}
	}
	for _, o := range outcomes {
		i, ok := s.index[o.Member]
		if !ok {
			continue
		}
		r := 0.0
		if best > 0 {
			r = o.Utility / best
			if r < 0 {
				r = 0
			} else if r > 1 {
				r = 1
			}
		}
		s.plays[i]++
		s.reward[i] += r
	}
}

// totalsLocked folds one epoch's outcomes into the reporting aggregates at
// commit time, so totals cover every outcome including the trailing lag
// window the policy never drains.
func (s *Selector) totalsLocked(outcomes []solver.MemberOutcome) {
	for _, o := range outcomes {
		i, ok := s.index[o.Member]
		if !ok {
			continue
		}
		s.totals[i].Slots++
		s.totals[i].Evaluations += uint64(o.Evaluations)
		s.totals[i].BudgetMs += o.ElapsedMs
		if o.Won {
			s.totals[i].Wins++
		}
	}
}

// Totals returns the per-member aggregates over every applied epoch.
func (s *Selector) Totals() []solver.MemberTotal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]solver.MemberTotal(nil), s.totals...)
}

// Close unblocks any waiting Plan (which then returns nil) and makes all
// further calls no-ops. Safe to call more than once.
func (s *Selector) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
