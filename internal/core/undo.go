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
	entries [3]undoEntry
	n       int
}

type undoEntry struct {
	user    int
	server  int
	channel int
}

// reset clears the record.
func (u *Undo) reset() { u.n = 0 }

// note records user's current slot in a, once per user per move.
func (u *Undo) note(a *assign.Assignment, user int) {
	for i := 0; i < u.n; i++ {
		if u.entries[i].user == user {
			return // first recording wins: it holds the pre-move slot
		}
	}
	if u.n == len(u.entries) {
		// Cannot happen for Algorithm 2 moves; guard loudly in case the
		// move set grows without widening the record.
		panic("core: undo record overflow")
	}
	s, j := a.SlotOf(user)
	u.entries[u.n] = undoEntry{user: user, server: s, channel: j}
	u.n++
}

// Revert restores every recorded user to its recorded slot. Touched users
// are first sent local (freeing all their current slots), then re-placed;
// only touched users moved since the record, so the recorded slots are
// necessarily free.
func (u *Undo) Revert(a *assign.Assignment) error {
	for i := 0; i < u.n; i++ {
		a.SetLocal(u.entries[i].user)
	}
	for i := 0; i < u.n; i++ {
		e := u.entries[i]
		if e.server == assign.Local {
			continue
		}
		if err := a.Offload(e.user, e.server, e.channel); err != nil {
			return fmt.Errorf("core: undo revert: %w", err)
		}
	}
	u.n = 0
	return nil
}
