package core

import (
	"fmt"

	"github.com/tsajs/tsajs/internal/assign"
)

// Undo records the prior slots of the users a move touches, so the move
// can be reverted in O(touched) instead of restoring a full copy of the
// decision. Every Algorithm 2 move touches at most three users (the target,
// a swap partner, and a displaced occupant).
type Undo struct {
	users [3]int
	slots [3]undoSlot
	n     int
}

type undoSlot struct{ server, channel int }

// Users returns the users the recorded move touched, each once. The slice
// aliases the record and is valid until its next change.
func (u *Undo) Users() []int { return u.users[:u.n] }

// reset clears the record.
func (u *Undo) reset() { u.n = 0 }

// note records user's current slot in a, once per user per move.
func (u *Undo) note(a *assign.Assignment, user int) {
	for _, v := range u.users[:u.n] {
		if v == user {
			return // first recording wins: it holds the pre-move slot
		}
	}
	if u.n == len(u.users) {
		// Cannot happen for Algorithm 2 moves; guard loudly in case the
		// move set grows without widening the record.
		panic("core: undo record overflow")
	}
	s, j := a.SlotOf(user)
	u.users[u.n] = user
	u.slots[u.n] = undoSlot{server: s, channel: j}
	u.n++
}

// Revert restores every recorded user to its recorded slot. Touched users
// are first sent local (freeing all their current slots), then re-placed;
// only touched users moved since the record, so the recorded slots are
// necessarily free.
func (u *Undo) Revert(a *assign.Assignment) error {
	for _, v := range u.users[:u.n] {
		a.SetLocal(v)
	}
	for i, v := range u.users[:u.n] {
		e := u.slots[i]
		if e.server == assign.Local {
			continue
		}
		if err := a.Offload(v, e.server, e.channel); err != nil {
			return fmt.Errorf("core: undo revert: %w", err)
		}
	}
	u.n = 0
	return nil
}
