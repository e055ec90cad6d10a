package core

import (
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/simrand"
)

// moveKind enumerates the Algorithm 2 move types.
type moveKind int

const (
	moveServer moveKind = iota + 1
	moveChannel
	moveSwap
	moveToggle
)

// Neighborhood generates candidate decisions per Algorithm 2
// (GetNeighborhood): pick a random target user, then with the configured
// probabilities either move it to another server, move it to another
// subchannel on its current server, swap its assignment with another
// user's, or toggle its offloading state. TTSA anneals over it; the
// LocalSearch baseline climbs over the same neighbourhood.
type Neighborhood struct {
	evict      bool
	cumServer  float64
	cumChannel float64
	cumSwap    float64
	// targets, when non-empty, restricts the move's target user to this
	// set (the repair anneal's dirty users). Secondary users — a swap
	// partner or a displaced occupant — stay unrestricted, so a repair
	// can still trade slots with clean users. With targets nil the draw
	// is rng.Intn(Users()) exactly as before.
	targets []int
}

// NeighborhoodFor builds a move generator from cfg's move mix and eviction
// policy.
func NeighborhoodFor(cfg Config) *Neighborhood {
	total := cfg.Moves.total()
	n := &Neighborhood{evict: !cfg.DisableEviction}
	n.cumServer = cfg.Moves.MoveServer / total
	n.cumChannel = n.cumServer + cfg.Moves.MoveChannel/total
	n.cumSwap = n.cumChannel + cfg.Moves.Swap/total
	return n
}

// pickUser draws the move's target user: uniform over targets when the
// move set is restricted, uniform over all users otherwise.
func (n *Neighborhood) pickUser(a *assign.Assignment, rng *simrand.Source) int {
	if len(n.targets) > 0 {
		return n.targets[rng.Intn(len(n.targets))]
	}
	return rng.Intn(a.Users())
}

// pick draws a move kind from the configured mix.
func (n *Neighborhood) pick(rng *simrand.Source) moveKind {
	r := rng.Float64()
	switch {
	case r < n.cumServer:
		return moveServer
	case r < n.cumChannel:
		return moveChannel
	case r < n.cumSwap:
		return moveSwap
	default:
		return moveToggle
	}
}

// Apply mutates a in place into a neighbouring feasible decision and
// reports whether it changed anything. It first resets undo, then records
// the prior slot of every user the move touches, so the caller can Revert
// a rejected candidate in O(touched) instead of copying the decision. A
// move that reports false leaves a unchanged. Moves that are impossible in
// the current state (e.g. a channel move with N = 1, or a fully occupied
// server without eviction) degrade to the closest applicable move rather
// than silently wasting the iteration, mirroring the fallbacks in
// Algorithm 2.
func (n *Neighborhood) Apply(a *assign.Assignment, rng *simrand.Source, undo *Undo) bool {
	undo.reset()
	u := n.pickUser(a, rng)
	switch n.pick(rng) {
	case moveServer:
		return n.relocateServer(a, u, rng, undo)
	case moveChannel:
		if a.Channels() <= 1 || a.IsLocal(u) {
			// K = 1 or a local target: Algorithm 2's channel branch is
			// undefined; relocating across servers is the nearest move.
			return n.relocateServer(a, u, rng, undo)
		}
		return n.relocateChannel(a, u, rng, undo)
	case moveSwap:
		return n.swap(a, u, rng, undo)
	default:
		return n.toggle(a, u, rng, undo)
	}
}

// relocateServer implements lines 7–11: move u to a different server,
// preferring a free subchannel and otherwise (with eviction enabled)
// displacing a random occupant to local execution.
func (n *Neighborhood) relocateServer(a *assign.Assignment, u int, rng *simrand.Source, undo *Undo) bool {
	cur, _ := a.SlotOf(u)
	if a.Servers() == 1 && cur == 0 {
		return false // nowhere else to go
	}
	s := rng.Intn(a.Servers())
	for s == cur {
		s = rng.Intn(a.Servers())
	}
	return n.place(a, u, s, rng, undo)
}

// relocateChannel implements lines 12–15: move u to another subchannel of
// its current server.
func (n *Neighborhood) relocateChannel(a *assign.Assignment, u int, rng *simrand.Source, undo *Undo) bool {
	s, cur := a.SlotOf(u)
	j := a.FreeChannel(s, rng.Intn(a.Channels()))
	if j == assign.Local || j == cur {
		if !n.evict {
			return false
		}
		// No free subchannel: pick a random different one and evict.
		j = rng.Intn(a.Channels())
		for j == cur {
			if a.Channels() == 1 {
				return false
			}
			j = rng.Intn(a.Channels())
		}
	}
	return evict(a, u, s, j, undo)
}

// swap implements lines 17–19: exchange the full assignments of u and a
// second random user.
func (n *Neighborhood) swap(a *assign.Assignment, u int, rng *simrand.Source, undo *Undo) bool {
	if a.Users() == 1 {
		return false
	}
	v := rng.Intn(a.Users())
	for v == u {
		v = rng.Intn(a.Users())
	}
	su, _ := a.SlotOf(u)
	sv, _ := a.SlotOf(v)
	if su == assign.Local && sv == assign.Local {
		return false // swapping two local users changes nothing
	}
	undo.note(a, u)
	undo.note(a, v)
	a.Swap(u, v)
	return true
}

// toggle implements lines 20–21: flip x(u,s,j). An offloaded user goes
// local; a local user takes a random slot.
func (n *Neighborhood) toggle(a *assign.Assignment, u int, rng *simrand.Source, undo *Undo) bool {
	if !a.IsLocal(u) {
		undo.note(a, u)
		a.SetLocal(u)
		return true
	}
	return n.place(a, u, rng.Intn(a.Servers()), rng, undo)
}

// place puts u on server s: on a free subchannel when one exists, otherwise
// by eviction when enabled.
func (n *Neighborhood) place(a *assign.Assignment, u, s int, rng *simrand.Source, undo *Undo) bool {
	j := a.FreeChannel(s, rng.Intn(a.Channels()))
	if j == assign.Local {
		if !n.evict {
			return false
		}
		j = rng.Intn(a.Channels())
	}
	return evict(a, u, s, j, undo)
}

// evict records u and the occupant of (s, j), then puts u on that slot,
// displacing the occupant to local execution. It fails, leaving a
// unchanged, when s is masked.
func evict(a *assign.Assignment, u, s, j int, undo *Undo) bool {
	undo.note(a, u)
	if occ := a.Occupant(s, j); occ != assign.Local && occ != u {
		undo.note(a, occ)
	}
	_, err := a.Evict(u, s, j)
	return err == nil
}
