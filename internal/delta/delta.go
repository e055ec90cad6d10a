// Package delta is the incremental ("delta") epoch engine shared by the
// dynamic replay (internal/dynamic) and the C-RAN serving pipeline
// (internal/cran). Each scheduling chain keeps one State, keyed by user,
// and both drivers take it through the same steps every epoch:
//
//  1. Plan classifies the epoch's users into dirty and clean and decides
//     whether the epoch falls back to a full solve.
//  2. Gains assembles the gain tensor: refreshed rows are redrawn from the
//     caller's per-row RNG streams, the others are copied from the cache.
//  3. A full epoch solves cold. A repair epoch starts from Incumbent, the
//     last committed decision carried onto this epoch's scenario (Carry),
//     and runs Repair, a short cold anneal whose moves target the dirty
//     users only.
//  4. Commit records the solved decision as the next epoch's incumbent.
//
// The drivers differ only in what they supply: the replay keys users by
// population index and feeds in mobility, activation and server faults;
// serving keys them by user ID, sequences each chain's epochs, and bounds
// the state with Evict.
//
// The contract the drivers rely on:
//
//   - Dirtiness is history-free: whether a user is dirty in epoch e
//     depends only on the mobility trace, the activation history, and the
//     fault plan — never on which threshold previous epochs ran with.
//     With the drift gate disabled this makes dirty sets pointwise nested
//     across thresholds (lower threshold ⊇ higher threshold), the
//     property the metamorphic monotonicity suite asserts.
//   - Threshold 0 marks every active user step-dirty, so the all-dirty
//     gate fires every epoch and the run degenerates to a full solve per
//     epoch — the reference run of the differential harness.
//   - Full epochs are classified before any repair work happens, in a
//     fixed order (reset, cadence, all-dirty, dirty-frac, drift), so the
//     reason string in telemetry is deterministic.
//   - A repair never ends below its incumbent, and the incumbent keeps no
//     carried offloader that does worse than local execution (J_u < 0),
//     so it scores at least the previous decision carried unchanged.
package delta

import (
	"fmt"

	"github.com/tsajs/tsajs/internal/geom"
)

// Full-epoch reasons, in gate order. Repair epochs carry an empty reason.
const (
	// ReasonReset: the incumbent was lost (coordinator outage in the
	// replay) and the next solved epoch must rebuild from scratch.
	ReasonReset = "reset"
	// ReasonCadence: the periodic FullEvery fallback fired.
	ReasonCadence = "cadence"
	// ReasonAllDirty: every active user is dirty, so a repair would scope
	// to the whole population anyway.
	ReasonAllDirty = "all-dirty"
	// ReasonDirtyFrac: more than maxDirtyFrac of the users are dirty.
	ReasonDirtyFrac = "dirty-frac"
	// ReasonDrift: some user accumulated DriftKm of displacement since its
	// row was last refreshed (slow drift below the per-step threshold).
	ReasonDrift = "drift"
)

// Config parametrizes the incremental epoch policy. A nil *Config on the
// consumer side means the delta path is disabled entirely.
type Config struct {
	// MoveThresholdKm marks a user dirty when its position moved at least
	// this far since the previous epoch. 0 marks every active user dirty,
	// which makes every epoch a full solve (the differential reference).
	MoveThresholdKm float64 `json:"moveThresholdKm"`
	// FullEvery forces a full solve on every epoch whose index is a
	// multiple of it, bounding how long errors from scoped repairs can
	// compound. 0 defaults to 8.
	FullEvery int `json:"fullEvery"`
	// DriftKm forces a full solve when any active user accumulated this
	// much displacement since its gain rows were last refreshed, catching
	// slow drift that stays under MoveThresholdKm every step. 0 disables
	// the gate (and keeps the policy monotone in the threshold).
	DriftKm float64 `json:"driftKm,omitempty"`
	// RepairEvalsPerUser scales the repair anneal's evaluation budget
	// with the dirty-set size. 0 defaults to 400.
	RepairEvalsPerUser int `json:"repairEvalsPerUser"`
	// RepairMinEvals floors the repair budget so tiny dirty sets still
	// get a meaningful walk. 0 defaults to 600.
	RepairMinEvals int `json:"repairMinEvals"`
	// RepairTemp is the repair anneal's initial temperature. The repair
	// starts from a near-optimal incumbent, so it runs much colder than a
	// full solve (whose default initial temperature is the user count).
	// 0 defaults to 0.5.
	RepairTemp float64 `json:"repairTemp"`
}

const (
	// maxDirtyFrac falls back to a full solve when more than this fraction
	// of the active users is dirty: a repair that touches most users costs
	// as much as a full solve and searches less.
	maxDirtyFrac = 0.5
	// maxTracked caps the per-user state the serving pipeline retains (row
	// cache, last position, incumbent slot); the least recently seen users
	// are evicted beyond it (State.Evict). The replay never evicts: its
	// population is fixed and bounded.
	maxTracked = 8192
)

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.FullEvery == 0 {
		c.FullEvery = 8
	}
	if c.RepairEvalsPerUser == 0 {
		c.RepairEvalsPerUser = 400
	}
	if c.RepairMinEvals == 0 {
		c.RepairMinEvals = 600
	}
	if c.RepairTemp == 0 {
		c.RepairTemp = 0.5
	}
	return c
}

// Validate checks the configuration (after defaulting).
func (c Config) Validate() error {
	c = c.WithDefaults()
	switch {
	case c.MoveThresholdKm < 0:
		return fmt.Errorf("delta: move threshold must be non-negative, got %g km", c.MoveThresholdKm)
	case c.FullEvery < 1:
		return fmt.Errorf("delta: full-solve cadence must be positive, got %d", c.FullEvery)
	case c.DriftKm < 0:
		return fmt.Errorf("delta: drift gate must be non-negative, got %g km", c.DriftKm)
	case c.RepairEvalsPerUser < 1:
		return fmt.Errorf("delta: repair evaluations per user must be positive, got %d", c.RepairEvalsPerUser)
	case c.RepairMinEvals < 1:
		return fmt.Errorf("delta: repair evaluation floor must be positive, got %d", c.RepairMinEvals)
	case c.RepairTemp <= 0:
		return fmt.Errorf("delta: repair temperature must be positive, got %g", c.RepairTemp)
	}
	return nil
}

// RepairBudget returns the evaluation budget for a repair anneal over the
// given dirty-set size: RepairEvalsPerUser·dirty floored at RepairMinEvals
// and capped at the full solve's budget (a repair must never out-spend the
// epoch it replaces). fullBudget <= 0 means uncapped.
func (c Config) RepairBudget(dirty, fullBudget int) int {
	b := c.RepairEvalsPerUser * dirty
	if b < c.RepairMinEvals {
		b = c.RepairMinEvals
	}
	if fullBudget > 0 && b > fullBudget {
		b = fullBudget
	}
	return b
}

// Plan is the verdict for one epoch.
type Plan struct {
	// Full reports whether the epoch must run a full solve; Reason names
	// the gate that fired (one of the Reason constants).
	Full   bool
	Reason string
	// Dirty lists the dirty users as indices into the epoch's key slice
	// (scenario order, not population indices), ascending. On a full epoch
	// it still holds the classification, but the driver refreshes every
	// user regardless.
	Dirty []int
}

// Rows returns how many gain-tensor rows the epoch refreshes: every
// active user on a full epoch, the dirty set on a repair epoch.
func (p Plan) Rows(active int) int {
	if p.Full {
		return active
	}
	return len(p.Dirty)
}

// refresh flags the n users whose gain rows the epoch redraws.
func (p Plan) refresh(n int) []bool {
	r := make([]bool, n)
	for i := range r {
		r[i] = p.Full
	}
	for _, i := range p.Dirty {
		r[i] = true
	}
	return r
}

// Tracker is the population-indexed classification on its own, for
// callers that keep their own incumbent (the serving benchmark's offline
// pass): it plans epochs without gains or carried decisions, so a user is
// dirty only when first seen, moved at least MoveThresholdKm since its
// last epoch, or forced by the caller.
type Tracker struct {
	s *State[int]
}

// NewTracker builds a tracker for a population of n users. The config is
// defaulted; it must have passed Validate.
func NewTracker(cfg Config, n int) *Tracker {
	s := NewState[int](cfg)
	s.users = make(map[int]*user, n)
	return &Tracker{s: s}
}

// Plan classifies the epoch. epoch is the 0-based cadence index, active
// lists the population indices holding a task, pos yields any user's
// current position, and forced (optional) marks users that must be
// re-placed regardless of movement. Call it exactly once per solved epoch.
func (t *Tracker) Plan(epoch int, active []int, pos func(int) geom.Point, forced func(int) bool) Plan {
	return t.s.plan(epoch, active, func(i int) geom.Point { return pos(active[i]) },
		func(i int, _ *user) bool { return forced != nil && forced(active[i]) })
}
