package objective

import (
	"testing"
	"testing/quick"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
)

// applyRandomMove mutates a with one random feasible move of the
// Algorithm 2 kinds, using only assign-level operations (this package
// cannot import internal/core), and appends the users it may have moved
// to moved.
func applyRandomMove(a *assign.Assignment, rng *simrand.Source, moved []int) []int {
	u := rng.Intn(a.Users())
	moved = append(moved, u)
	switch rng.Intn(4) {
	case 0: // relocate/evict
		s, j := rng.Intn(a.Servers()), rng.Intn(a.Channels())
		if occ := a.Occupant(s, j); occ != assign.Local && occ != u {
			moved = append(moved, occ)
		}
		_, _ = a.Evict(u, s, j)
	case 1: // toggle
		if a.IsLocal(u) {
			s := rng.Intn(a.Servers())
			if j := a.FreeChannel(s, rng.Intn(a.Channels())); j != assign.Local {
				_ = a.Offload(u, s, j)
			}
		} else {
			a.SetLocal(u)
		}
	case 2: // swap
		v := rng.Intn(a.Users())
		a.Swap(u, v)
		if v != u {
			moved = append(moved, v)
		}
	default: // set local
		a.SetLocal(u)
	}
	return moved
}

func incScenario(t testing.TB, users, servers, channels int, seed uint64) *scenario.Scenario {
	t.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = users
	p.NumServers = servers
	p.NumChannels = channels
	p.Workload.WorkCycles = 2500e6
	p.Seed = seed
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestIncrementalMatchesFullOnBuild(t *testing.T) {
	sc := incScenario(t, 12, 3, 2, 5)
	rng := simrand.New(1)
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		applyRandomMove(a, rng, nil)
	}
	full := New(sc).SystemUtility(a)
	inc := NewIncremental(sc, a)
	if !sameBits(inc.Utility(), full) {
		t.Errorf("initial build: incremental %.17g vs full %.17g", inc.Utility(), full)
	}
}

// TestIncrementalEquivalenceProperty is the core oracle: across long
// random sequences of previewed/accepted/rejected moves, the incremental
// utility must equal the full recomputation bit for bit, whether the moved
// users are named or found by diffing.
func TestIncrementalEquivalenceProperty(t *testing.T) {
	sc := incScenario(t, 10, 3, 2, 7)
	e := New(sc)
	prop := func(seed uint64) bool {
		rng := simrand.New(seed)
		cur, err := assign.New(sc.U(), sc.S(), sc.N())
		if err != nil {
			return false
		}
		inc := NewIncremental(sc, cur)
		cand := cur.Clone()
		for step := 0; step < 150; step++ {
			if err := cand.CopyFrom(cur); err != nil {
				return false
			}
			moved := applyRandomMove(cand, rng, nil)
			got := inc.Preview(cand)
			if step%2 == 0 {
				got = inc.PreviewMoved(cand, moved)
			}
			want := e.SystemUtility(cand)
			if !sameBits(got, want) {
				t.Logf("seed %d step %d: preview %.17g, full %.17g", seed, step, got, want)
				return false
			}
			if rng.Float64() < 0.5 { // accept half the moves
				inc.Accept(cand)
				cur, cand = cand, cur
				if !sameBits(inc.Utility(), want) {
					t.Logf("seed %d step %d: committed %.17g, full %.17g", seed, step, inc.Utility(), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalManyChannels(t *testing.T) {
	// Decisions wider than one 64-bit word of subchannels.
	sc := incScenario(t, 20, 2, 70, 9)
	e := New(sc)
	rng := simrand.New(3)
	cur, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(sc, cur)
	cand := cur.Clone()
	for step := 0; step < 200; step++ {
		if err := cand.CopyFrom(cur); err != nil {
			t.Fatal(err)
		}
		applyRandomMove(cand, rng, nil)
		got := inc.Preview(cand)
		want := e.SystemUtility(cand)
		if !sameBits(got, want) {
			t.Fatalf("step %d: preview %.17g, full %.17g", step, got, want)
		}
		inc.Accept(cand)
		cur, cand = cand, cur
	}
}

func TestIncrementalIdenticalCandidate(t *testing.T) {
	sc := incScenario(t, 8, 3, 2, 11)
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(sc, a)
	// Previewing an unchanged candidate returns the tracked utility.
	if got := inc.Preview(a.Clone()); got != inc.Utility() {
		t.Errorf("identical preview = %g, tracked %g", got, inc.Utility())
	}
}

func TestIncrementalAcceptWithoutPreview(t *testing.T) {
	// Accept without a valid preview must fall back to a full rebuild.
	sc := incScenario(t, 8, 3, 2, 13)
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(sc, a)
	b := a.Clone()
	if err := b.Offload(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	inc.Accept(b) // no preview happened
	want := New(sc).SystemUtility(b)
	if !sameBits(inc.Utility(), want) {
		t.Errorf("rebuild fallback: %.17g vs %.17g", inc.Utility(), want)
	}
}

func BenchmarkIncrementalPreview(b *testing.B) {
	benchPreview := func(b *testing.B, channels int) {
		sc := incScenario(b, 50, 9, channels, 2)
		rng := simrand.New(4)
		cur, err := assign.New(sc.U(), sc.S(), sc.N())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			applyRandomMove(cur, rng, nil)
		}
		inc := NewIncremental(sc, cur)
		cand := cur.Clone()
		full := New(sc)
		moved := make([]int, 0, 2)
		b.Run("incremental", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cand.CopyFrom(cur); err != nil {
					b.Fatal(err)
				}
				moved = applyRandomMove(cand, rng, moved[:0])
				_ = inc.PreviewMoved(cand, moved)
			}
		})
		b.Run("full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cand.CopyFrom(cur); err != nil {
					b.Fatal(err)
				}
				moved = applyRandomMove(cand, rng, moved[:0])
				_ = full.SystemUtility(cand)
			}
		})
	}
	b.Run("N3", func(b *testing.B) { benchPreview(b, 3) })
	b.Run("N50", func(b *testing.B) { benchPreview(b, 50) })
}
