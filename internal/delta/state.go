package delta

import (
	"cmp"
	"slices"
	"time"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// State is one scheduling chain's cross-epoch delta state, keyed by user.
// The replay keys it by population index, the serving pipeline by user ID.
// A State is not safe for concurrent use; serving runs each chain's epochs
// one at a time, in order.
type State[K cmp.Ordered] struct {
	cfg   Config
	users map[K]*user
	// gen numbers the committed decisions: a user carries an incumbent
	// slot only when its slot belongs to the latest one.
	gen uint64
	// clock counts planned epochs; it stamps lastSeen for eviction.
	clock uint64
	// forceFull marks a lost incumbent: the next planned epoch is full.
	forceFull bool
}

// user is one tracked user's state.
type user struct {
	// lastPos is the position at the user's last planned epoch (the step
	// reference); refreshPos where its cached row was drawn (the drift
	// reference).
	lastPos    geom.Point
	refreshPos geom.Point
	// row is the cached gain block (sites·channels of the chain's
	// scenario shape).
	row []float64
	// slot is the user's (server, channel) in decision slotGen, in
	// scenario-local indices.
	slot    [2]int
	slotGen uint64
	// lastSeen is the clock of the user's last planned epoch.
	lastSeen uint64
}

// NewState returns an empty chain state. The config is defaulted; it must
// have passed Validate.
func NewState[K cmp.Ordered](cfg Config) *State[K] {
	return &State[K]{cfg: cfg.WithDefaults(), users: make(map[K]*user), gen: 1}
}

// Plan classifies the epoch and advances the state. epoch is the 0-based
// cadence index (the FullEvery gate fires on its multiples), keys are the
// epoch's users in scenario order, pos(i) is user i's position, and down
// (optional) reports failed servers.
//
// A user is dirty when the state has nothing usable for it: never seen (no
// cached row), no carried slot (absent from the last committed decision,
// so only a repair that targets it can offload it again), a carried slot
// on a failed server, or a step of at least MoveThresholdKm since its last
// epoch. Drift, sub-threshold creep accumulated since the row was drawn,
// trips a full solve instead. Call Plan exactly once per solved epoch.
func (s *State[K]) Plan(epoch int, keys []K, pos func(int) geom.Point, down func(server int) bool) Plan {
	return s.plan(epoch, keys, pos, func(_ int, u *user) bool {
		return u.slotGen != s.gen || (down != nil && u.slot[0] != assign.Local && down(u.slot[0]))
	})
}

func (s *State[K]) plan(epoch int, keys []K, pos func(int) geom.Point, forced func(int, *user) bool) Plan {
	p := Plan{}
	drift := false
	for i, k := range keys {
		cur := pos(i)
		u := s.users[k]
		switch {
		case u == nil, cur.Dist(u.lastPos) >= s.cfg.MoveThresholdKm, forced(i, u):
			p.Dirty = append(p.Dirty, i)
		}
		if u != nil && s.cfg.DriftKm > 0 && cur.Dist(u.refreshPos) >= s.cfg.DriftKm {
			drift = true
		}
	}

	switch {
	case s.forceFull:
		p.Full, p.Reason = true, ReasonReset
	case epoch%s.cfg.FullEvery == 0:
		p.Full, p.Reason = true, ReasonCadence
	case len(p.Dirty) == len(keys):
		p.Full, p.Reason = true, ReasonAllDirty
	case float64(len(p.Dirty)) > s.cfg.MaxDirtyFrac*float64(len(keys)):
		p.Full, p.Reason = true, ReasonDirtyFrac
	case drift:
		p.Full, p.Reason = true, ReasonDrift
	}
	s.forceFull = false

	s.clock++
	refresh := p.refresh(len(keys))
	for i, k := range keys {
		u := s.users[k]
		if u == nil {
			u = &user{}
			s.users[k] = u
		}
		cur := pos(i)
		if refresh[i] {
			u.refreshPos = cur
		}
		u.lastPos = cur
		u.lastSeen = s.clock
	}
	return p
}

// Gains fills gain, the epoch's tensor in key order, for the plan Plan
// just returned: each refreshed row (every row on a full epoch, the dirty
// rows otherwise) is redrawn at pos(i) from rng(i) and cached, and every
// other row is copied from the cache. It returns how many rows came from
// the cache.
func (s *State[K]) Gains(p Plan, keys []K, gain radio.GainTensor, m radio.PathLossModel, sites []geom.Point, pos func(int) geom.Point, rng func(int) *simrand.Source) (int, error) {
	refresh := p.refresh(len(keys))
	reused := 0
	for i, k := range keys {
		u := s.users[k]
		block := gain.UserBlock(i)
		if !refresh[i] {
			copy(block, u.row)
			reused++
			continue
		}
		if err := gain.RefreshUser(m, i, pos(i), sites, rng(i)); err != nil {
			return 0, err
		}
		if u.row == nil {
			u.row = make([]float64, len(block))
		}
		copy(u.row, block)
	}
	return reused, nil
}

// Incumbent carries the last committed decision onto this epoch's
// scenario (see Carry); users without a carried slot start local.
func (s *State[K]) Incumbent(sc *scenario.Scenario, keys []K) (*assign.Assignment, error) {
	return Carry(sc, func(i int) (int, int) {
		if u := s.users[keys[i]]; u != nil && u.slotGen == s.gen {
			return u.slot[0], u.slot[1]
		}
		return assign.Local, assign.Local
	})
}

// Repair solves a repair epoch from the incumbent. With no dirty user it
// keeps the incumbent outright; otherwise it runs full's anneal at
// RepairTemp with RepairBudget's evaluation budget (capped at full's), its
// moves targeting only the dirty users, reporting to full's observer. The
// result never falls below the incumbent: the walk's best starts there.
func (s *State[K]) Repair(sc *scenario.Scenario, rng *simrand.Source, full *core.TTSA, incumbent *assign.Assignment, dirty []int) (solver.Result, error) {
	if len(dirty) == 0 {
		return solver.Finish(full.Name(), objective.New(sc), incumbent, 1, time.Now()), nil
	}
	cfg := full.Config()
	cfg.InitialTemp = s.cfg.RepairTemp
	cfg.MaxEvaluations = s.cfg.RepairBudget(len(dirty), cfg.MaxEvaluations)
	repair, err := full.WithConfig(cfg)
	if err != nil {
		return solver.Result{}, err
	}
	return repair.ScheduleRepair(sc, rng, incumbent, dirty)
}

// Commit records the solved decision, in key order, as the next epoch's
// incumbent. Users absent from it lose their carried slot. Every key must
// have been planned.
func (s *State[K]) Commit(keys []K, a *assign.Assignment) {
	s.gen++
	for i, k := range keys {
		u := s.users[k]
		u.slot[0], u.slot[1] = a.SlotOf(i)
		u.slotGen = s.gen
	}
}

// Skip advances the state over an epoch with no solve (the replay's empty
// epochs and coordinator outages). No user carries a slot into the next
// epoch, and lostIncumbent forces it to a full solve (reason "reset").
func (s *State[K]) Skip(lostIncumbent bool) {
	s.gen++
	s.forceFull = s.forceFull || lostIncumbent
}

// Evict drops the least recently seen users, ties broken by key, until at
// most MaxTracked remain. Only serving evicts: the replay population is
// bounded, and keeping every user keeps its classification history-free.
func (s *State[K]) Evict() {
	excess := len(s.users) - s.cfg.MaxTracked
	if excess <= 0 {
		return
	}
	keys := make([]K, 0, len(s.users))
	for k := range s.users {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int {
		if c := cmp.Compare(s.users[a].lastSeen, s.users[b].lastSeen); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, k := range keys[:excess] {
		delete(s.users, k)
	}
}

// Carry builds a decision for sc from the previous epoch's slots: slot(i)
// is user i's previous (server, channel), assign.Local for none. A user
// keeps its slot when the slot still exists (the network may have shrunk),
// no earlier user claimed it, and offloading there still beats local
// execution on this epoch's scenario; everyone else starts local. Repair
// incumbents and the replay's warm starts both start here.
func Carry(sc *scenario.Scenario, slot func(i int) (server, channel int)) (*assign.Assignment, error) {
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		return nil, err
	}
	for i := 0; i < sc.U(); i++ {
		srv, ch := slot(i)
		if srv < 0 || srv >= sc.S() || ch < 0 || ch >= sc.N() || a.Occupant(srv, ch) != assign.Local {
			continue
		}
		if err := a.Offload(i, srv, ch); err != nil {
			return nil, err
		}
	}
	// J_u is measured against local execution, so a carried offloader
	// with J_u < 0 (one that moved away from its old server, say) does
	// better at home, and a repair that never targets it would keep it
	// there. One pass suffices: the users that stay only gain (less
	// co-channel interference, a larger KKT share of their server), so
	// the guarded decision scores at least the raw carry and keeps no
	// negative offload.
	for i, m := range objective.New(sc).Evaluate(a).Users {
		if m.Offloaded && m.Utility < 0 {
			a.SetLocal(i)
		}
	}
	return a, nil
}
