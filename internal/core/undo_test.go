package core

import (
	"testing"
	"testing/quick"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/simrand"
)

// TestApplyUndoRoundTripProperty: for any feasible decision, any move
// followed by Revert restores the exact original decision.
func TestApplyUndoRoundTripProperty(t *testing.T) {
	moves := NeighborhoodFor(DefaultConfig())
	prop := func(seed uint64) bool {
		rng := simrand.New(seed)
		a, err := assign.New(9, 3, 2)
		if err != nil {
			return false
		}
		for u := 0; u < 9; u++ {
			if rng.Float64() < 0.5 {
				s := rng.Intn(3)
				if j := a.FreeChannel(s, rng.Intn(2)); j != assign.Local {
					if err := a.Offload(u, s, j); err != nil {
						return false
					}
				}
			}
		}
		var undo Undo
		for step := 0; step < 300; step++ {
			before := a.Clone()
			changed := moves.Apply(a, rng, &undo)
			if a.Validate() != nil {
				return false
			}
			if err := undo.Revert(a); err != nil {
				return false
			}
			if !a.Equal(before) {
				t.Logf("seed %d step %d (changed=%v): revert mismatch\nbefore %v\nafter  %v",
					seed, step, changed, before, a)
				return false
			}
			if a.Validate() != nil {
				return false
			}
			// Re-apply a move and keep it, so the walk explores states.
			moves.Apply(a, rng, &undo)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRevertEmptyUndoIsNoop: reverting with nothing recorded is safe.
func TestRevertEmptyUndoIsNoop(t *testing.T) {
	a, err := assign.New(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Offload(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	before := a.Clone()
	var undo Undo
	if err := undo.Revert(a); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(before) {
		t.Error("empty revert changed the assignment")
	}
}
