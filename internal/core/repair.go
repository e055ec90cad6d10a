package core

import (
	"errors"
	"fmt"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// ScheduleRepair runs Algorithm 1 as a scoped repair anneal for the
// delta-epoch path: the walk starts from the previous epoch's decision
// (the incumbent) and every move targets one of the given dirty users,
// so the search spends its whole budget re-placing the users whose
// channel rows actually changed. Swap partners and displaced occupants
// remain unrestricted — a repair may still move a clean user aside to
// make room. The receiver should be configured with a repair-sized
// budget (MaxEvaluations) and a cold InitialTemp, e.g. via
// delta.Config.RepairBudget and RepairTemp.
//
// The returned utility can never fall below the incumbent's: the chain's
// best starts at the initial decision and only improves. The initial
// decision is not mutated.
func (t *TTSA) ScheduleRepair(sc *scenario.Scenario, rng *simrand.Source, initial *assign.Assignment, targets []int) (solver.Result, error) {
	if initial == nil {
		return solver.Result{}, errors.New("core: nil repair incumbent")
	}
	if err := checkInitial(sc, initial, "repair incumbent"); err != nil {
		return solver.Result{}, err
	}
	if len(targets) == 0 {
		return solver.Result{}, errors.New("core: repair needs a non-empty target set")
	}
	for _, u := range targets {
		if u < 0 || u >= sc.U() {
			return solver.Result{}, fmt.Errorf("core: repair target %d out of range [0,%d)", u, sc.U())
		}
	}
	res, _, err := t.runChain(sc, rng, false, ChainOptions{Initial: initial, Targets: targets})
	return res, err
}
