// Package assign implements the task-offloading decision X of the TSAJS
// model: for each user, either local execution or a unique
// (server, subchannel) slot. The type enforces the feasibility constraints
// of the JTORA problem structurally:
//
//   - (12b)/(12c): a user holds at most one slot,
//   - (12d): a (server, subchannel) slot holds at most one user.
//
// Constraint (12e)/(12f) — the computing-resource side — lives in
// internal/alloc.
package assign

import (
	"errors"
	"fmt"
)

// Local marks a user as executing its task on the device.
const Local = -1

// Assignment is an offloading decision X. The zero value is unusable; use
// New. Assignment is not safe for concurrent mutation.
type Assignment struct {
	serverOf  []int   // per-user server index, or Local
	channelOf []int   // per-user subchannel index, or Local
	occupant  [][]int // [server][channel] -> user index, or Local (free)
	offloaded int     // number of offloading users
	masked    []bool  // per-server capacity mask (nil = all available)
}

// New returns an all-local assignment for numUsers users, numServers
// servers and numChannels subchannels per server.
func New(numUsers, numServers, numChannels int) (*Assignment, error) {
	if numUsers <= 0 || numServers <= 0 || numChannels <= 0 {
		return nil, fmt.Errorf("assign: dimensions must be positive, got U=%d S=%d N=%d",
			numUsers, numServers, numChannels)
	}
	a := &Assignment{
		serverOf:  make([]int, numUsers),
		channelOf: make([]int, numUsers),
		occupant:  make([][]int, numServers),
	}
	for u := range a.serverOf {
		a.serverOf[u] = Local
		a.channelOf[u] = Local
	}
	flat := make([]int, numServers*numChannels)
	for i := range flat {
		flat[i] = Local
	}
	for s := range a.occupant {
		a.occupant[s], flat = flat[:numChannels], flat[numChannels:]
	}
	return a, nil
}

// Users returns the number of users.
func (a *Assignment) Users() int { return len(a.serverOf) }

// Servers returns the number of servers.
func (a *Assignment) Servers() int { return len(a.occupant) }

// Channels returns the number of subchannels per server.
func (a *Assignment) Channels() int {
	if len(a.occupant) == 0 {
		return 0
	}
	return len(a.occupant[0])
}

// Offloaded returns |U_offload|, the number of offloading users.
func (a *Assignment) Offloaded() int { return a.offloaded }

// IsLocal reports whether user u executes locally.
func (a *Assignment) IsLocal(u int) bool { return a.serverOf[u] == Local }

// SlotOf returns user u's (server, channel), or (Local, Local) if local.
func (a *Assignment) SlotOf(u int) (server, channel int) {
	return a.serverOf[u], a.channelOf[u]
}

// Occupant returns the user holding slot (s, j), or Local if the slot is
// free.
func (a *Assignment) Occupant(s, j int) int { return a.occupant[s][j] }

// MaskServer removes server s from the feasible capacity: its slots reject
// new placements until UnmaskServer, and any current occupants are
// evacuated to local execution. This is the failure hook of the
// fault-tolerance layer — a crashed edge server keeps its index (so slot
// coordinates stay stable across an outage) but contributes no capacity.
// The evacuated users are returned in channel order.
func (a *Assignment) MaskServer(s int) ([]int, error) {
	if s < 0 || s >= a.Servers() {
		return nil, fmt.Errorf("assign: server %d out of range [0,%d)", s, a.Servers())
	}
	var evacuated []int
	for j, u := range a.occupant[s] {
		if u != Local {
			evacuated = append(evacuated, u)
			a.serverOf[u] = Local
			a.channelOf[u] = Local
			a.occupant[s][j] = Local
			a.offloaded--
		}
	}
	if a.masked == nil {
		a.masked = make([]bool, a.Servers())
	}
	a.masked[s] = true
	return evacuated, nil
}

// UnmaskServer restores server s to the feasible capacity.
func (a *Assignment) UnmaskServer(s int) error {
	if s < 0 || s >= a.Servers() {
		return fmt.Errorf("assign: server %d out of range [0,%d)", s, a.Servers())
	}
	if a.masked != nil {
		a.masked[s] = false
	}
	return nil
}

// IsMasked reports whether server s is masked out of the capacity.
func (a *Assignment) IsMasked(s int) bool {
	return a.masked != nil && s >= 0 && s < len(a.masked) && a.masked[s]
}

// MaskedServers returns the indices of all masked servers in ascending
// order, or nil when the full fleet is available.
func (a *Assignment) MaskedServers() []int {
	var out []int
	for s := range a.masked {
		if a.masked[s] {
			out = append(out, s)
		}
	}
	return out
}

// SetLocal moves user u to local execution, freeing its slot if any.
func (a *Assignment) SetLocal(u int) {
	if s := a.serverOf[u]; s != Local {
		a.occupant[s][a.channelOf[u]] = Local
		a.serverOf[u] = Local
		a.channelOf[u] = Local
		a.offloaded--
	}
}

// Offload places user u on slot (s, j). It fails if the slot is held by a
// different user; use Evict for displacement semantics.
func (a *Assignment) Offload(u, s, j int) error {
	if err := a.checkSlot(s, j); err != nil {
		return err
	}
	if occ := a.occupant[s][j]; occ != Local && occ != u {
		return fmt.Errorf("assign: slot (%d,%d) already held by user %d", s, j, occ)
	}
	a.SetLocal(u)
	a.serverOf[u] = s
	a.channelOf[u] = j
	a.occupant[s][j] = u
	a.offloaded++
	return nil
}

// Evict places user u on slot (s, j), displacing any current occupant to
// local execution. It returns the displaced user, or Local if the slot was
// free. This is the "allocate one randomly if none are free" semantics of
// Algorithm 2, kept feasible by sending the previous holder local.
func (a *Assignment) Evict(u, s, j int) (displaced int, err error) {
	if err := a.checkSlot(s, j); err != nil {
		return Local, err
	}
	displaced = a.occupant[s][j]
	if displaced == u {
		return Local, nil
	}
	if displaced != Local {
		a.SetLocal(displaced)
	}
	if err := a.Offload(u, s, j); err != nil {
		return Local, err
	}
	return displaced, nil
}

// Swap exchanges the assignments of users u and v (either may be local).
func (a *Assignment) Swap(u, v int) {
	if u == v {
		return
	}
	us, uj := a.serverOf[u], a.channelOf[u]
	vs, vj := a.serverOf[v], a.channelOf[v]
	a.SetLocal(u)
	a.SetLocal(v)
	if vs != Local {
		// Slot was just freed, so Offload cannot fail.
		if err := a.Offload(u, vs, vj); err != nil {
			panic("assign: swap invariant violated: " + err.Error())
		}
	}
	if us != Local {
		if err := a.Offload(v, us, uj); err != nil {
			panic("assign: swap invariant violated: " + err.Error())
		}
	}
}

// FreeChannel returns a free subchannel on server s scanning from a random
// starting offset provided by the caller, or Local if the server is full.
// The offset parameter keeps this package free of randomness while letting
// callers randomize which free slot is found.
func (a *Assignment) FreeChannel(s, offset int) int {
	if a.IsMasked(s) {
		return Local
	}
	n := a.Channels()
	if offset < 0 {
		offset = -offset
	}
	for i := 0; i < n; i++ {
		j := (offset + i) % n
		if a.occupant[s][j] == Local {
			return j
		}
	}
	return Local
}

// UsersOf appends the users offloaded to server s to buf and returns it.
// Pass a reused buffer to avoid allocation in hot loops.
func (a *Assignment) UsersOf(s int, buf []int) []int {
	for _, u := range a.occupant[s] {
		if u != Local {
			buf = append(buf, u)
		}
	}
	return buf
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{
		serverOf:  append([]int(nil), a.serverOf...),
		channelOf: append([]int(nil), a.channelOf...),
		occupant:  make([][]int, len(a.occupant)),
		offloaded: a.offloaded,
	}
	if a.masked != nil {
		c.masked = append([]bool(nil), a.masked...)
	}
	flat := make([]int, len(a.occupant)*a.Channels())
	for s := range a.occupant {
		row := flat[:a.Channels()]
		flat = flat[a.Channels():]
		copy(row, a.occupant[s])
		c.occupant[s] = row
	}
	return c
}

// CopyFrom overwrites a with the contents of src. Both must have identical
// dimensions; CopyFrom avoids the allocations of Clone in hot loops.
func (a *Assignment) CopyFrom(src *Assignment) error {
	if a.Users() != src.Users() || a.Servers() != src.Servers() || a.Channels() != src.Channels() {
		return errors.New("assign: dimension mismatch in CopyFrom")
	}
	copy(a.serverOf, src.serverOf)
	copy(a.channelOf, src.channelOf)
	for s := range a.occupant {
		copy(a.occupant[s], src.occupant[s])
	}
	a.offloaded = src.offloaded
	switch {
	case src.masked == nil:
		a.masked = nil
	case a.masked == nil:
		a.masked = append([]bool(nil), src.masked...)
	default:
		copy(a.masked, src.masked)
	}
	return nil
}

// Equal reports whether two assignments encode the same decision.
func (a *Assignment) Equal(b *Assignment) bool {
	if a.Users() != b.Users() || a.Servers() != b.Servers() || a.Channels() != b.Channels() {
		return false
	}
	for u := range a.serverOf {
		if a.serverOf[u] != b.serverOf[u] || a.channelOf[u] != b.channelOf[u] {
			return false
		}
	}
	return true
}

// Validate checks the internal invariants: the per-user view and the
// per-slot view must agree, and every index must be in range.
func (a *Assignment) Validate() error {
	offloaded := 0
	for u, s := range a.serverOf {
		j := a.channelOf[u]
		if s == Local {
			if j != Local {
				return fmt.Errorf("assign: user %d local with channel %d", u, j)
			}
			continue
		}
		if err := a.checkSlot(s, j); err != nil {
			return fmt.Errorf("assign: user %d: %w", u, err)
		}
		if a.occupant[s][j] != u {
			return fmt.Errorf("assign: user %d claims slot (%d,%d) held by %d", u, s, j, a.occupant[s][j])
		}
		offloaded++
	}
	for s := range a.occupant {
		for j, u := range a.occupant[s] {
			if u == Local {
				continue
			}
			if u < 0 || u >= a.Users() {
				return fmt.Errorf("assign: slot (%d,%d) holds invalid user %d", s, j, u)
			}
			if a.serverOf[u] != s || a.channelOf[u] != j {
				return fmt.Errorf("assign: slot (%d,%d) holds user %d assigned to (%d,%d)",
					s, j, u, a.serverOf[u], a.channelOf[u])
			}
		}
	}
	if offloaded != a.offloaded {
		return fmt.Errorf("assign: offloaded count %d, recount %d", a.offloaded, offloaded)
	}
	for s := range a.masked {
		if !a.masked[s] {
			continue
		}
		for j, u := range a.occupant[s] {
			if u != Local {
				return fmt.Errorf("assign: masked server %d holds user %d on channel %d", s, u, j)
			}
		}
	}
	return nil
}

// String renders the assignment compactly, e.g. "[0:(1,2) 1:local 2:(0,0)]".
func (a *Assignment) String() string {
	out := "["
	for u, s := range a.serverOf {
		if u > 0 {
			out += " "
		}
		if s == Local {
			out += fmt.Sprintf("%d:local", u)
		} else {
			out += fmt.Sprintf("%d:(%d,%d)", u, s, a.channelOf[u])
		}
	}
	return out + "]"
}

func (a *Assignment) checkSlot(s, j int) error {
	if s < 0 || s >= a.Servers() {
		return fmt.Errorf("assign: server %d out of range [0,%d)", s, a.Servers())
	}
	if j < 0 || j >= a.Channels() {
		return fmt.Errorf("assign: channel %d out of range [0,%d)", j, a.Channels())
	}
	if a.IsMasked(s) {
		return fmt.Errorf("assign: server %d is masked (failed/unavailable)", s)
	}
	return nil
}
