package core

import (
	"math"

	"github.com/tsajs/tsajs/internal/assign"
)

// expUnderflow is math.Exp's underflow bound: Exp(x) is exactly 0 for every
// x below it, so a candidate with delta/T < expUnderflow fails the
// Metropolis test Exp(delta/T) > r for every draw r in [0, 1).
const expUnderflow = -7.45133219101941108420e+02

// sweepMargin is how many times the sweep's candidate count a capped walk
// must still have left in its budget before a sweep can pay for itself.
const sweepMargin = 4

// sweepSize is the number of candidates bestDelta prices from a: per target
// user, one relocation per slot and one toggle to local, plus the swaps
// (each unordered pair once when every user is a target).
func (n *Neighborhood) sweepSize(a *assign.Assignment) int {
	users, slots := a.Users(), a.Servers()*a.Channels()
	if len(n.targets) == 0 {
		return users*(slots+1) + users*(users-1)/2
	}
	return len(n.targets) * (slots + 1 + users - 1)
}

// bestDelta prices a superset of the candidates Apply can produce from a —
// every relocation of a target user to any slot with eviction, every
// toggle of an offloaded target to local, and every swap of a target with
// another user — and returns the largest price(candidate) − curJ, or −Inf
// when there is no candidate. a is restored before it returns.
//
// Apply draws each candidate from this set (a relocation, channel move or
// placement without eviction picks a free slot, which the sweep covers
// too), so while a is the walk's current decision no candidate can beat the
// returned delta. With the delta negative and delta/T below expUnderflow,
// the walk is frozen for good: T only falls, so every later candidate is
// rejected without being priced.
func (n *Neighborhood) bestDelta(a *assign.Assignment, undo *Undo, price func(*assign.Assignment) float64, curJ float64) (float64, error) {
	best := math.Inf(-1)
	try := func() error {
		if d := price(a) - curJ; d > best {
			best = d
		}
		return undo.Revert(a)
	}
	users, count := a.Users(), a.Users()
	if len(n.targets) > 0 {
		count = len(n.targets)
	}
	for i := 0; i < count; i++ {
		u := i
		if len(n.targets) > 0 {
			u = n.targets[i]
		}
		cs, cj := a.SlotOf(u)
		for s := 0; s < a.Servers(); s++ {
			for j := 0; j < a.Channels(); j++ {
				if s == cs && j == cj {
					continue
				}
				undo.reset()
				if !evict(a, u, s, j, undo) {
					continue // s is masked
				}
				if err := try(); err != nil {
					return 0, err
				}
			}
		}
		if cs != assign.Local {
			undo.reset()
			undo.note(a, u)
			a.SetLocal(u)
			if err := try(); err != nil {
				return 0, err
			}
		}
		for v := 0; v < users; v++ {
			if v == u || (len(n.targets) == 0 && v < u) {
				continue
			}
			if vs, _ := a.SlotOf(v); cs == assign.Local && vs == assign.Local {
				continue
			}
			undo.reset()
			undo.note(a, u)
			undo.note(a, v)
			a.Swap(u, v)
			if err := try(); err != nil {
				return 0, err
			}
		}
	}
	return best, nil
}
