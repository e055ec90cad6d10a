package objective

import (
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/scenario"
)

// Incremental prices neighbours of a tracked decision bit for bit as
// Evaluator.SystemUtility would, re-pricing only what a move changes. For
// the tracked decision it caches:
//
//   - every offloaded user's Γ term,
//   - every subchannel's member list, in user order,
//   - every server's Λ term.
//
// A user's Γ term depends only on its own slot and on which users share its
// subchannel, so a candidate that moves a few users (every Algorithm 2 move
// touches at most three) re-prices every member of a subchannel whose
// membership changed, only the moved users on a subchannel whose membership
// did not, and the Λ term of every server whose user set changed. The
// utility is then summed by the same code and in the same (subchannel,
// user) and server order as SystemUtility, so no bit can differ.
//
// Usage: Preview or PreviewMoved returns a candidate's utility; Accept
// commits the previewed candidate as the new tracked decision. A preview is
// pure: rejecting a candidate requires no cleanup. All scratch belongs to
// the Evaluator the Incremental lives in, so steady-state previews and
// accepts perform zero allocations at any subchannel count.
type Incremental struct {
	e *Evaluator

	// The tracked decision: each user's slot, each subchannel's priced
	// members and each server's Λ term, with its utility.
	server, channel []int
	members         [][]member
	lam             []float64
	utility         float64

	// The last preview: view and lamView are members and lam with the
	// touched subchannels' lists (built in pool, in touched order) and the
	// dirty servers' terms swapped in; changed lists the users whose slot
	// moved. Accept commits them; the next preview discards them.
	view    [][]member
	lamView []float64
	pool    [][]member
	touched []int
	dirty   []int
	changed []int
	pending float64
	valid   bool

	diff []int // Preview's moved-user scratch
	occ  []int // a dirty server's users
}

// NewIncremental returns a fresh evaluator for sc tracking decision a (the
// caller's assignment is not retained).
func NewIncremental(sc *scenario.Scenario, a *assign.Assignment) *Incremental {
	return New(sc).Track(a)
}

// Track makes a the tracked decision of e's Incremental and returns it
// (a is not retained). The Incremental lives in e and uses its scratch, so
// Track allocates nothing; the next Track on e starts it over.
func (e *Evaluator) Track(a *assign.Assignment) *Incremental {
	inc := &e.track
	for u := range inc.server {
		inc.server[u], inc.channel[u] = a.SlotOf(u)
	}
	e.price(a, inc.members, inc.lam)
	copy(inc.view, inc.members)
	copy(inc.lamView, inc.lam)
	inc.utility = e.total(inc.members, inc.lam)
	inc.touched, inc.dirty, inc.changed = inc.touched[:0], inc.dirty[:0], inc.changed[:0]
	inc.valid = false
	return inc
}

// Utility returns the tracked decision's system utility.
func (inc *Incremental) Utility() float64 { return inc.utility }

// Preview returns the system utility of cand, finding the users whose slot
// differs from the tracked decision by comparing every user.
func (inc *Incremental) Preview(cand *assign.Assignment) float64 {
	inc.diff = inc.diff[:0]
	for u := range inc.server {
		if s, j := cand.SlotOf(u); s != inc.server[u] || j != inc.channel[u] {
			inc.diff = append(inc.diff, u)
		}
	}
	return inc.PreviewMoved(cand, inc.diff)
}

// PreviewMoved returns the system utility of cand, which must differ from
// the tracked decision only in the slots of the distinct users listed in
// moved (a listed user may also be unchanged) — such as the users an
// Algorithm 2 move's undo record names. The tracked decision is unchanged.
func (inc *Incremental) PreviewMoved(cand *assign.Assignment, moved []int) float64 {
	e := inc.e
	inc.discard()
	for _, u := range moved {
		from, to := inc.server[u], inc.channel[u]
		s, j := cand.SlotOf(u)
		if s == from && j == to {
			continue
		}
		inc.changed = append(inc.changed, u)
		if from != assign.Local {
			inc.touched = addOnce(inc.touched, to)
		}
		if s != assign.Local {
			inc.touched = addOnce(inc.touched, j)
		}
		if s != from {
			if from != assign.Local {
				inc.dirty = addOnce(inc.dirty, from)
			}
			if s != assign.Local {
				inc.dirty = addOnce(inc.dirty, s)
			}
		}
	}
	if len(inc.changed) == 0 {
		inc.pending, inc.valid = inc.utility, true
		return inc.utility
	}

	for i, j := range inc.touched {
		// The candidate's members: the tracked ones that stayed, with the
		// moved users that arrived inserted in user order.
		old := inc.members[j]
		group := inc.pool[i][:0]
		for _, m := range old {
			if s, c := cand.SlotOf(m.u); s == m.s && c == j {
				group = append(group, m)
			}
		}
		for _, u := range inc.changed {
			if s, c := cand.SlotOf(u); s != assign.Local && c == j {
				group = insertMember(group, member{u: u, s: s})
			}
		}
		// A user's interference sums the other members' powers in user
		// order, so with the same users on j only the moved ones re-price.
		same := sameUsers(group, old)
		for k := range group {
			if m := &group[k]; !same || m.s != inc.server[m.u] || j != inc.channel[m.u] {
				m.cost = e.cost(j, *m, group)
			}
		}
		inc.pool[i] = group
		inc.view[j] = group
	}
	for _, s := range inc.dirty {
		// Re-sum Σ√η in user order, as group does.
		users := sortInts(cand.UsersOf(s, inc.occ[:0]))
		sum := 0.0
		for _, u := range users {
			sum += e.sqrtEta[u]
		}
		inc.lamView[s] = e.lambda(s, sum)
	}
	inc.pending = e.total(inc.view, inc.lamView)
	inc.valid = true
	return inc.pending
}

// Accept commits the most recently previewed candidate as the tracked
// decision. cand must be the assignment passed to that preview; without a
// valid preview Accept tracks cand from scratch.
func (inc *Incremental) Accept(cand *assign.Assignment) {
	if !inc.valid {
		inc.e.Track(cand)
		return
	}
	for i, j := range inc.touched {
		// Swap rather than copy: the pool keeps the displaced list as the
		// next preview's scratch.
		inc.members[j], inc.pool[i] = inc.pool[i], inc.members[j]
	}
	for _, s := range inc.dirty {
		inc.lam[s] = inc.lamView[s]
	}
	for _, u := range inc.changed {
		inc.server[u], inc.channel[u] = cand.SlotOf(u)
	}
	inc.utility = inc.pending
	inc.touched, inc.dirty, inc.changed = inc.touched[:0], inc.dirty[:0], inc.changed[:0]
	inc.valid = false
}

// discard drops the last preview, restoring the views to the tracked
// decision.
func (inc *Incremental) discard() {
	for _, j := range inc.touched {
		inc.view[j] = inc.members[j]
	}
	for _, s := range inc.dirty {
		inc.lamView[s] = inc.lam[s]
	}
	inc.touched, inc.dirty, inc.changed = inc.touched[:0], inc.dirty[:0], inc.changed[:0]
	inc.valid = false
}

// addOnce appends v to set unless it is already there.
func addOnce(set []int, v int) []int {
	for _, x := range set {
		if x == v {
			return set
		}
	}
	return append(set, v)
}

// insertMember inserts m into group, which is sorted by user.
func insertMember(group []member, m member) []member {
	group = append(group, m)
	k := len(group) - 1
	for ; k > 0 && group[k-1].u > m.u; k-- {
		group[k] = group[k-1]
	}
	group[k] = m
	return group
}

// sortInts sorts a server's few users in place by insertion.
func sortInts(v []int) []int {
	for i := 1; i < len(v); i++ {
		for k := i; k > 0 && v[k-1] > v[k]; k-- {
			v[k-1], v[k] = v[k], v[k-1]
		}
	}
	return v
}

// sameUsers reports whether two user-ordered member lists hold the same
// users.
func sameUsers(a, b []member) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].u != b[k].u {
			return false
		}
	}
	return true
}
