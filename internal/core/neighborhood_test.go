package core

import (
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/simrand"
)

func freshAssignment(t *testing.T, u, s, n int) *assign.Assignment {
	t.Helper()
	a, err := assign.New(u, s, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNeighborhoodPreservesFeasibilityProperty(t *testing.T) {
	// Core safety property of Algorithm 2: every generated neighbour of a
	// feasible decision is feasible (constraints 12b–12d).
	moves := NeighborhoodFor(DefaultConfig())
	var undo Undo
	prop := func(seed uint64) bool {
		rng := simrand.New(seed)
		a, err := assign.New(8, 3, 2)
		if err != nil {
			return false
		}
		// Random feasible start.
		for u := 0; u < 8; u++ {
			if rng.Float64() < 0.5 {
				s := rng.Intn(3)
				if j := a.FreeChannel(s, rng.Intn(2)); j != assign.Local {
					if err := a.Offload(u, s, j); err != nil {
						return false
					}
				}
			}
		}
		for step := 0; step < 200; step++ {
			moves.Apply(a, rng, &undo)
			if a.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNeighborhoodChangesState(t *testing.T) {
	// Over many draws, Apply must usually produce a different decision.
	moves := NeighborhoodFor(DefaultConfig())
	var undo Undo
	rng := simrand.New(1)
	a := freshAssignment(t, 6, 3, 2)
	changed := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		before := a.Clone()
		if moves.Apply(a, rng, &undo) && !a.Equal(before) {
			changed++
		}
	}
	if changed < trials/2 {
		t.Errorf("only %d/%d moves changed the decision", changed, trials)
	}
}

func TestNeighborhoodReachesAllMoveKinds(t *testing.T) {
	n := NeighborhoodFor(DefaultConfig())
	rng := simrand.New(2)
	counts := map[moveKind]int{}
	for i := 0; i < 10000; i++ {
		counts[n.pick(rng)]++
	}
	// Expected mix: 55% / 25% / 15% / 5%.
	within := func(kind moveKind, want float64) {
		got := float64(counts[kind]) / 10000
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("move kind %d frequency %.3f, want about %.2f", kind, got, want)
		}
	}
	within(moveServer, 0.55)
	within(moveChannel, 0.25)
	within(moveSwap, 0.15)
	within(moveToggle, 0.05)
}

func TestCustomMoveMixNormalized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Moves = MoveWeights{Swap: 2, Toggle: 2} // only swaps and toggles
	n := NeighborhoodFor(cfg)
	rng := simrand.New(3)
	for i := 0; i < 1000; i++ {
		k := n.pick(rng)
		if k != moveSwap && k != moveToggle {
			t.Fatalf("draw %d produced kind %d with zero weight", i, k)
		}
	}
}

func TestToggleFlipsState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Moves = MoveWeights{Toggle: 1}
	n := NeighborhoodFor(cfg)
	var undo Undo
	rng := simrand.New(4)
	a := freshAssignment(t, 1, 2, 2)
	if !n.Apply(a, rng, &undo) {
		t.Fatal("toggle of a local user failed")
	}
	if a.IsLocal(0) {
		t.Fatal("toggle did not offload the local user")
	}
	if !n.Apply(a, rng, &undo) {
		t.Fatal("toggle of an offloaded user failed")
	}
	if !a.IsLocal(0) {
		t.Fatal("toggle did not localize the offloaded user")
	}
}

func TestMoveServerRelocates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Moves = MoveWeights{MoveServer: 1}
	n := NeighborhoodFor(cfg)
	var undo Undo
	rng := simrand.New(5)
	a := freshAssignment(t, 1, 3, 1)
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !n.Apply(a, rng, &undo) {
			t.Fatal("server move failed with free servers available")
		}
		if s, _ := a.SlotOf(0); s == assign.Local {
			t.Fatal("server move sent the user local")
		}
		if a.Validate() != nil {
			t.Fatal("server move broke feasibility")
		}
	}
}

func TestMoveServerEvictsWhenFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Moves = MoveWeights{MoveServer: 1}
	n := NeighborhoodFor(cfg)
	var undo Undo
	rng := simrand.New(6)
	// Two servers with one channel each, both full; moving one user to
	// the other server must evict its occupant to local.
	a := freshAssignment(t, 2, 2, 1)
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Offload(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if !n.Apply(a, rng, &undo) {
		t.Fatal("move failed on full network with eviction enabled")
	}
	if a.Offloaded() != 1 {
		t.Errorf("offloaded = %d after eviction move, want 1", a.Offloaded())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDisableEvictionBlocksFullMoves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Moves = MoveWeights{MoveServer: 1}
	cfg.DisableEviction = true
	n := NeighborhoodFor(cfg)
	var undo Undo
	rng := simrand.New(7)
	a := freshAssignment(t, 2, 2, 1)
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Offload(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	before := a.Clone()
	for i := 0; i < 20; i++ {
		if n.Apply(a, rng, &undo) {
			t.Fatal("move succeeded on a full network with eviction disabled")
		}
	}
	if !a.Equal(before) {
		t.Error("failed moves mutated the assignment")
	}
}

func TestMoveChannelStaysOnServer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Moves = MoveWeights{MoveChannel: 1}
	n := NeighborhoodFor(cfg)
	var undo Undo
	rng := simrand.New(8)
	a := freshAssignment(t, 1, 1, 4)
	if err := a.Offload(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !n.Apply(a, rng, &undo) {
			t.Fatal("channel move failed with free channels")
		}
		s, _ := a.SlotOf(0)
		if s != 0 {
			t.Fatal("channel move changed the server")
		}
	}
}

func TestMoveChannelFallsBackWithOneChannel(t *testing.T) {
	// With N=1 the channel branch must degrade to a server move, not
	// spin forever (Algorithm 2's K>1 guard).
	cfg := DefaultConfig()
	cfg.Moves = MoveWeights{MoveChannel: 1}
	n := NeighborhoodFor(cfg)
	var undo Undo
	rng := simrand.New(9)
	a := freshAssignment(t, 1, 2, 1)
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !n.Apply(a, rng, &undo) {
		t.Fatal("fallback move failed")
	}
	if s, _ := a.SlotOf(0); s != 1 {
		t.Errorf("expected fallback relocation to server 1, got %d", s)
	}
}

func TestSwapRequiresTwoUsers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Moves = MoveWeights{Swap: 1}
	n := NeighborhoodFor(cfg)
	var undo Undo
	rng := simrand.New(10)
	a := freshAssignment(t, 1, 2, 1)
	if n.Apply(a, rng, &undo) {
		t.Error("swap succeeded with a single user")
	}
}

func TestExportedNeighborhood(t *testing.T) {
	n := NeighborhoodFor(DefaultConfig())
	var undo Undo
	rng := simrand.New(11)
	a := freshAssignment(t, 4, 2, 2)
	changed := false
	for i := 0; i < 20; i++ {
		if n.Apply(a, rng, &undo) {
			changed = true
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !changed {
		t.Error("exported neighbourhood never changed the decision")
	}
}

// TestNeighborhoodMovesGolden pins the Algorithm 2 move sequence: the
// changed flag and the whole decision after every move of a long walk,
// over shapes that reach each fallback (one server, one subchannel, one
// user, full servers, a masked server), with eviction on and off. TTSA, the repair anneal
// and LocalSearch all draw from this generator, so any change to its
// random draws or its mutations moves the digest.
func TestNeighborhoodMovesGolden(t *testing.T) {
	const want = "0db12408a4f704dd"
	// (users, servers, subchannels, masked server or -1)
	shapes := [][4]int{{1, 2, 2, -1}, {6, 1, 1, -1}, {8, 3, 2, -1}, {12, 4, 3, -1}, {10, 3, 2, 1}}
	h := fnv.New64a()
	var buf []byte
	for _, shape := range shapes {
		for _, evict := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.DisableEviction = !evict
			moves := NeighborhoodFor(cfg)
			var undo Undo
			for seed := uint64(1); seed <= 40; seed++ {
				rng := simrand.New(seed)
				a := freshAssignment(t, shape[0], shape[1], shape[2])
				for u := 0; u < a.Users(); u++ {
					if rng.Float64() < 0.6 {
						s := rng.Intn(a.Servers())
						if j := a.FreeChannel(s, rng.Intn(a.Channels())); j != assign.Local {
							if err := a.Offload(u, s, j); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if shape[3] >= 0 {
					if _, err := a.MaskServer(shape[3]); err != nil {
						t.Fatal(err)
					}
				}
				for step := 0; step < 300; step++ {
					buf = buf[:0]
					if moves.Apply(a, rng, &undo) {
						buf = append(buf, 1)
					} else {
						buf = append(buf, 0)
					}
					for u := 0; u < a.Users(); u++ {
						s, j := a.SlotOf(u)
						buf = append(buf, byte(s+1), byte(j+1))
					}
					h.Write(buf)
				}
				if err := a.Validate(); err != nil {
					t.Fatalf("shape %v evict %v seed %d: %v", shape, evict, seed, err)
				}
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("move digest = %s, want %s", got, want)
	}
}
