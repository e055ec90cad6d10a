package assign

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, u, s, n int) *Assignment {
	t.Helper()
	a, err := New(u, s, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAllLocal(t *testing.T) {
	a := mustNew(t, 4, 3, 2)
	if a.Users() != 4 || a.Servers() != 3 || a.Channels() != 2 {
		t.Fatalf("dimensions %d/%d/%d", a.Users(), a.Servers(), a.Channels())
	}
	if a.Offloaded() != 0 {
		t.Errorf("fresh assignment has %d offloaded", a.Offloaded())
	}
	for u := 0; u < 4; u++ {
		if !a.IsLocal(u) {
			t.Errorf("user %d not local initially", u)
		}
	}
	for s := 0; s < 3; s++ {
		for j := 0; j < 2; j++ {
			if a.Occupant(s, j) != Local {
				t.Errorf("slot (%d,%d) occupied initially", s, j)
			}
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadDimensions(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if _, err := New(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("New(%v) accepted", dims)
		}
	}
}

func TestOffloadAndSetLocal(t *testing.T) {
	a := mustNew(t, 3, 2, 2)
	if err := a.Offload(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if a.IsLocal(0) || a.Offloaded() != 1 {
		t.Fatal("offload not recorded")
	}
	if s, j := a.SlotOf(0); s != 1 || j != 1 {
		t.Fatalf("SlotOf = (%d,%d)", s, j)
	}
	if a.Occupant(1, 1) != 0 {
		t.Fatal("occupant not recorded")
	}
	// Conflicting offload of another user must fail.
	if err := a.Offload(1, 1, 1); err == nil {
		t.Fatal("slot conflict accepted")
	}
	// Re-offloading the same user to the same slot is a no-op success.
	if err := a.Offload(0, 1, 1); err != nil {
		t.Fatalf("idempotent offload failed: %v", err)
	}
	if a.Offloaded() != 1 {
		t.Fatalf("offloaded count = %d after idempotent offload", a.Offloaded())
	}
	// Moving the user releases the old slot.
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if a.Occupant(1, 1) != Local {
		t.Fatal("old slot not freed on move")
	}
	a.SetLocal(0)
	if !a.IsLocal(0) || a.Offloaded() != 0 || a.Occupant(0, 0) != Local {
		t.Fatal("SetLocal did not clear state")
	}
	a.SetLocal(0) // idempotent
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadRangeChecks(t *testing.T) {
	a := mustNew(t, 2, 2, 2)
	for _, slot := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 2}} {
		if err := a.Offload(0, slot[0], slot[1]); err == nil {
			t.Errorf("out-of-range slot %v accepted", slot)
		}
	}
}

func TestEvict(t *testing.T) {
	a := mustNew(t, 3, 2, 1)
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	displaced, err := a.Evict(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if displaced != 0 {
		t.Fatalf("displaced = %d, want 0", displaced)
	}
	if !a.IsLocal(0) {
		t.Error("displaced user not sent local")
	}
	if a.Occupant(0, 0) != 1 {
		t.Error("evictor did not take the slot")
	}
	// Evicting into a free slot displaces nobody.
	displaced, err = a.Evict(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if displaced != Local {
		t.Errorf("displaced = %d from a free slot", displaced)
	}
	// Evicting yourself is a no-op.
	displaced, err = a.Evict(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if displaced != Local || a.Occupant(0, 0) != 1 {
		t.Error("self-eviction changed state")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSwap(t *testing.T) {
	a := mustNew(t, 4, 2, 2)
	mustOffload(t, a, 0, 0, 0)
	mustOffload(t, a, 1, 1, 1)

	// Offloaded <-> offloaded.
	a.Swap(0, 1)
	if s, j := a.SlotOf(0); s != 1 || j != 1 {
		t.Fatalf("user 0 at (%d,%d) after swap", s, j)
	}
	if s, j := a.SlotOf(1); s != 0 || j != 0 {
		t.Fatalf("user 1 at (%d,%d) after swap", s, j)
	}

	// Offloaded <-> local.
	a.Swap(0, 2)
	if !a.IsLocal(0) {
		t.Error("user 0 should be local after swapping with local user")
	}
	if s, j := a.SlotOf(2); s != 1 || j != 1 {
		t.Errorf("user 2 at (%d,%d), want (1,1)", s, j)
	}

	// Local <-> local and self-swap are no-ops.
	a.Swap(0, 3)
	a.Swap(2, 2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Offloaded() != 2 {
		t.Errorf("offloaded = %d, want 2", a.Offloaded())
	}
}

func TestFreeChannel(t *testing.T) {
	a := mustNew(t, 4, 1, 3)
	mustOffload(t, a, 0, 0, 0)
	mustOffload(t, a, 1, 0, 2)
	if j := a.FreeChannel(0, 0); j != 1 {
		t.Errorf("FreeChannel = %d, want 1", j)
	}
	// Offset changes the scan start but must still find the free slot.
	if j := a.FreeChannel(0, 2); j != 1 {
		t.Errorf("FreeChannel offset 2 = %d, want 1", j)
	}
	// Negative offsets are tolerated.
	if j := a.FreeChannel(0, -5); j != 1 {
		t.Errorf("FreeChannel offset -5 = %d, want 1", j)
	}
	mustOffload(t, a, 2, 0, 1)
	if j := a.FreeChannel(0, 1); j != Local {
		t.Errorf("full server returned channel %d", j)
	}
}

func TestUsersOf(t *testing.T) {
	a := mustNew(t, 5, 2, 3)
	mustOffload(t, a, 0, 0, 1)
	mustOffload(t, a, 3, 0, 2)
	mustOffload(t, a, 4, 1, 0)
	got := a.UsersOf(0, nil)
	if len(got) != 2 {
		t.Fatalf("UsersOf(0) = %v", got)
	}
	// Buffer reuse appends.
	buf := make([]int, 0, 8)
	buf = a.UsersOf(1, buf)
	if len(buf) != 1 || buf[0] != 4 {
		t.Fatalf("UsersOf(1) = %v", buf)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := mustNew(t, 3, 2, 2)
	mustOffload(t, a, 0, 1, 0)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	mustOffload(t, c, 1, 0, 1)
	c.SetLocal(0)
	if a.IsLocal(0) || !a.IsLocal(1) {
		t.Error("mutating the clone changed the original")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFrom(t *testing.T) {
	a := mustNew(t, 3, 2, 2)
	mustOffload(t, a, 0, 1, 0)
	b := mustNew(t, 3, 2, 2)
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("CopyFrom did not reproduce the source")
	}
	other := mustNew(t, 4, 2, 2)
	if err := other.CopyFrom(a); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestEqual(t *testing.T) {
	a := mustNew(t, 2, 2, 2)
	b := mustNew(t, 2, 2, 2)
	if !a.Equal(b) {
		t.Error("fresh assignments differ")
	}
	mustOffload(t, a, 0, 0, 0)
	if a.Equal(b) {
		t.Error("differing assignments compare equal")
	}
	c := mustNew(t, 3, 2, 2)
	if a.Equal(c) {
		t.Error("different dimensions compare equal")
	}
}

func TestString(t *testing.T) {
	a := mustNew(t, 2, 2, 2)
	mustOffload(t, a, 1, 0, 1)
	s := a.String()
	if !strings.Contains(s, "0:local") || !strings.Contains(s, "1:(0,1)") {
		t.Errorf("String = %q", s)
	}
}

// TestRandomMoveSequencePreservesInvariants drives a long random sequence
// of every mutation through Validate, the package's structural-feasibility
// oracle for constraints (12b)–(12d).
func TestRandomMoveSequencePreservesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := mustNew(t, 9, 3, 2)
	for step := 0; step < 5000; step++ {
		u := rng.Intn(9)
		switch rng.Intn(4) {
		case 0:
			s, j := rng.Intn(3), rng.Intn(2)
			if a.Occupant(s, j) == Local {
				if err := a.Offload(u, s, j); err != nil {
					t.Fatalf("step %d: offload to free slot failed: %v", step, err)
				}
			}
		case 1:
			if _, err := a.Evict(u, rng.Intn(3), rng.Intn(2)); err != nil {
				t.Fatalf("step %d: evict failed: %v", step, err)
			}
		case 2:
			a.Swap(u, rng.Intn(9))
		default:
			a.SetLocal(u)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("step %d: invariants broken: %v", step, err)
		}
	}
}

// TestOffloadedCountProperty checks the offloaded counter against a recount
// for arbitrary random operation sequences.
func TestOffloadedCountProperty(t *testing.T) {
	prop := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := New(6, 2, 3)
		if err != nil {
			return false
		}
		for _, op := range ops {
			u := rng.Intn(6)
			switch op % 3 {
			case 0:
				_, _ = a.Evict(u, rng.Intn(2), rng.Intn(3))
			case 1:
				a.SetLocal(u)
			default:
				a.Swap(u, rng.Intn(6))
			}
		}
		count := 0
		for u := 0; u < 6; u++ {
			if !a.IsLocal(u) {
				count++
			}
		}
		return count == a.Offloaded() && a.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mustOffload(t *testing.T, a *Assignment, u, s, j int) {
	t.Helper()
	if err := a.Offload(u, s, j); err != nil {
		t.Fatal(err)
	}
}
