package delta

import (
	"fmt"
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.FullEvery != 8 || c.RepairEvalsPerUser != 400 || c.RepairMinEvals != 600 || c.RepairTemp != 0.5 {
		t.Errorf("unexpected defaults: %+v", c)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid after defaulting: %v", err)
	}
}

// TestDefaultRepairBudgetAndGates pins the policy a zero Config gets: the
// repair budget (400 evaluations per dirty user, at least 600, capped at
// the full budget), a full solve every 8 epochs, a full solve once more
// than half the batch is dirty, no drift gate, a repair temperature of 0.5
// and 8192 tracked users before eviction.
func TestDefaultRepairBudgetAndGates(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.FullEvery != 8 || c.RepairTemp != 0.5 || c.DriftKm != 0 || c.MoveThresholdKm != 0 {
		t.Errorf("defaults: %+v", c)
	}
	for _, tc := range []struct{ dirty, full, want int }{
		{1, 20000, 600}, {2, 20000, 800}, {10, 20000, 4000}, {60, 20000, 20000}, {100, 0, 40000},
	} {
		if got := c.RepairBudget(tc.dirty, tc.full); got != tc.want {
			t.Errorf("RepairBudget(%d, %d) = %d, want %d", tc.dirty, tc.full, got, tc.want)
		}
	}

	// Dirty-fraction gate: 5 of 10 users moved repairs, 6 of 10 solves full.
	const n = 10
	all := seq(n)
	st := NewState[int](Config{MoveThresholdKm: 0.01})
	x := make([]float64, n)
	for e, tc := range []struct {
		moved  int // users 0..moved-1 step 1 km
		full   bool
		reason string
	}{
		{0, true, ReasonCadence},
		{5, false, ""},
		{6, true, ReasonDirtyFrac},
		{0, false, ""}, {0, false, ""}, {0, false, ""}, {0, false, ""}, {0, false, ""},
		{0, true, ReasonCadence},
	} {
		for i := 0; i < tc.moved; i++ {
			x[i]++
		}
		p := st.Plan(e, all, func(i int) geom.Point { return geom.Point{X: x[i]} }, nil)
		st.Commit(all, local(t, n))
		if p.Full != tc.full || p.Reason != tc.reason {
			t.Errorf("epoch %d: %+v, want full=%v reason %q", e, p, tc.full, tc.reason)
		}
	}

	// Tracked-user cap: one user over 8192 evicts the least recently seen.
	big := NewState[string](Config{})
	still := func(int) geom.Point { return geom.Point{} }
	big.Plan(0, []string{"a", "b"}, still, nil)
	fill := make([]string, 8191)
	for i := range fill {
		fill[i] = fmt.Sprintf("f%05d", i)
	}
	big.Plan(1, fill, still, nil)
	big.Evict()
	if len(big.users) != 8192 || big.users["a"] != nil || big.users["b"] == nil {
		t.Errorf("after eviction: %d users, a kept %v, b kept %v; want 8192 with a evicted",
			len(big.users), big.users["a"] != nil, big.users["b"] != nil)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MoveThresholdKm: -1},
		{FullEvery: -3},
		{DriftKm: -0.1},
		{RepairEvalsPerUser: -5},
		{RepairMinEvals: -5},
		{RepairTemp: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}

func TestRepairBudget(t *testing.T) {
	c := Config{RepairEvalsPerUser: 100, RepairMinEvals: 250}.WithDefaults()
	if got := c.RepairBudget(1, 4000); got != 250 {
		t.Errorf("floor: got %d, want 250", got)
	}
	if got := c.RepairBudget(5, 4000); got != 500 {
		t.Errorf("linear: got %d, want 500", got)
	}
	if got := c.RepairBudget(100, 4000); got != 4000 {
		t.Errorf("cap: got %d, want 4000", got)
	}
	if got := c.RepairBudget(100, 0); got != 10000 {
		t.Errorf("uncapped: got %d, want 10000", got)
	}
}

// walk synthesizes a deterministic mobility trace: per epoch, each user
// displaces by a random step whose length varies user to user, so any
// positive threshold splits the population.
func walk(rng *simrand.Source, n, epochs int) [][]geom.Point {
	pos := make([][]geom.Point, epochs)
	pos[0] = make([]geom.Point, n)
	for u := range pos[0] {
		pos[0][u] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	for e := 1; e < epochs; e++ {
		pos[e] = make([]geom.Point, n)
		for u := range pos[e] {
			step := 0.05 * rng.Float64()
			pos[e][u] = geom.Point{X: pos[e-1][u].X + step, Y: pos[e-1][u].Y}
		}
	}
	return pos
}

// local returns an all-local decision for n users, the simplest
// committable incumbent.
func local(t *testing.T, n int) *assign.Assignment {
	t.Helper()
	a, err := assign.New(n, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestTrackerNestedAcrossThresholds is the metamorphic property of the
// keyed state: over the same trajectory and activation history, the dirty
// set at a higher threshold is a subset of the dirty set at any lower
// threshold, and a full verdict at the higher threshold implies one at
// the lower (drift gate off).
func TestTrackerNestedAcrossThresholds(t *testing.T) {
	const n, epochs = 20, 15
	rng := simrand.New(99)
	pos := walk(rng, n, epochs)
	active := make([][]int, epochs)
	for e := range active {
		for u := 0; u < n; u++ {
			if rng.Float64() < 0.8 {
				active[e] = append(active[e], u)
			}
		}
	}

	thresholds := []float64{0, 0.01, 0.02, 0.04, 1e9}
	states := make([]*State[int], len(thresholds))
	for i, th := range thresholds {
		states[i] = NewState[int](Config{MoveThresholdKm: th, FullEvery: 6})
	}
	for e := 0; e < epochs; e++ {
		plans := make([]Plan, len(states))
		for i, st := range states {
			keys := active[e]
			plans[i] = st.Plan(e, keys, func(j int) geom.Point { return pos[e][keys[j]] }, nil)
			st.Commit(keys, local(t, len(keys)))
		}
		for i := 1; i < len(plans); i++ {
			lo, hi := plans[i-1], plans[i]
			inLo := make(map[int]bool, len(lo.Dirty))
			for _, idx := range lo.Dirty {
				inLo[idx] = true
			}
			for _, idx := range hi.Dirty {
				if !inLo[idx] {
					t.Fatalf("epoch %d: user index %d dirty at threshold %g but clean at %g",
						e, idx, thresholds[i], thresholds[i-1])
				}
			}
			if hi.Full && !lo.Full {
				t.Fatalf("epoch %d: full at threshold %g but repair at %g", e, thresholds[i], thresholds[i-1])
			}
			if hi.Rows(len(active[e])) > lo.Rows(len(active[e])) {
				t.Fatalf("epoch %d: threshold %g refreshes more rows than %g", e, thresholds[i], thresholds[i-1])
			}
		}
	}
}

// TestTrackerPlan: the population-indexed Tracker classifies without
// carried decisions, so users that hold still stay clean without any
// commit, and forced users are dirty.
func TestTrackerPlan(t *testing.T) {
	all := seq(4)
	still := func(int) geom.Point { return geom.Point{} }
	tr := NewTracker(Config{MoveThresholdKm: 0.01, FullEvery: 100}, len(all))
	if p := tr.Plan(0, all, still, nil); !p.Full || len(p.Dirty) != len(all) {
		t.Fatalf("epoch 0: %+v, want every newcomer dirty", p)
	}
	if p := tr.Plan(1, all, still, nil); p.Full || len(p.Dirty) != 0 {
		t.Fatalf("epoch 1: %+v, want a clean repair", p)
	}
	if p := tr.Plan(2, all, still, func(u int) bool { return u == 3 }); p.Full || len(p.Dirty) != 1 || p.Dirty[0] != 3 {
		t.Fatalf("epoch 2: %+v, want only the forced user dirty", p)
	}
}

func TestTrackerGates(t *testing.T) {
	const n = 10
	all := seq(n)
	still := func(int) geom.Point { return geom.Point{} }
	st := NewState[int](Config{MoveThresholdKm: 0.01, FullEvery: 4})
	plan := func(e int, pos func(int) geom.Point, down func(int) bool) Plan {
		p := st.Plan(e, all, pos, down)
		st.Commit(all, local(t, n))
		return p
	}
	if p := plan(0, still, nil); !p.Full || p.Reason != ReasonCadence {
		t.Fatalf("epoch 0: %+v, want cadence full (epoch%%4 == 0)", p)
	}
	// Nobody moves: repair epochs with an empty dirty set until the
	// cadence comes around again.
	for e := 1; e < 4; e++ {
		if p := plan(e, still, nil); p.Full || len(p.Dirty) != 0 {
			t.Fatalf("epoch %d: %+v, want clean repair", e, p)
		}
	}
	if p := plan(4, still, nil); !p.Full || p.Reason != ReasonCadence {
		t.Fatalf("epoch 4: %+v, want cadence full", p)
	}

	// Everyone jumps: the all-dirty gate fires before dirty-frac.
	jump := func(int) geom.Point { return geom.Point{X: 5} }
	if p := plan(5, jump, nil); !p.Full || p.Reason != ReasonAllDirty || len(p.Dirty) != n {
		t.Fatalf("epoch 5: %+v, want all-dirty full", p)
	}

	// A majority carried onto a failed server trips dirty-frac without
	// any movement.
	onServer0, err := assign.New(n, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 6; u++ {
		if err := onServer0.Offload(u, 0, u); err != nil {
			t.Fatal(err)
		}
	}
	st.Commit(all, onServer0)
	if p := plan(6, jump, func(s int) bool { return s == 0 }); !p.Full || p.Reason != ReasonDirtyFrac {
		t.Fatalf("epoch 6: %+v, want dirty-frac full", p)
	}

	// Skip with a lost incumbent forces the next epoch full.
	st.Skip(true)
	if p := plan(7, jump, nil); !p.Full || p.Reason != ReasonReset {
		t.Fatalf("epoch 7 after lost incumbent: %+v, want reset full", p)
	}
	// A plain skip drops every carried slot: all dirty, nobody moved.
	st.Skip(false)
	if p := plan(9, jump, nil); !p.Full || p.Reason != ReasonAllDirty {
		t.Fatalf("epoch 9 after a skipped epoch: %+v, want all-dirty full", p)
	}
}

// TestTrackerDriftGate: users creeping below the per-step threshold
// accumulate displacement since their last refresh until the drift gate
// forces a full solve.
func TestTrackerDriftGate(t *testing.T) {
	all := seq(4)
	st := NewState[int](Config{MoveThresholdKm: 0.05, FullEvery: 100, DriftKm: 0.1})
	x := 0.0
	at := func(int) geom.Point { return geom.Point{X: x} }
	if p := st.Plan(0, all, at, nil); !p.Full {
		t.Fatalf("epoch 0: %+v", p)
	}
	st.Commit(all, local(t, len(all)))
	sawDrift := false
	for e := 1; e <= 10; e++ {
		x += 0.02 // below the 0.05 step threshold, accumulating
		p := st.Plan(e, all, at, nil)
		st.Commit(all, local(t, len(all)))
		if p.Full {
			if p.Reason != ReasonDrift {
				t.Fatalf("epoch %d: full with reason %q, want drift", e, p.Reason)
			}
			sawDrift = true
			break
		}
		if len(p.Dirty) != 0 {
			t.Fatalf("epoch %d: creeping users marked step-dirty: %+v", e, p)
		}
	}
	if !sawDrift {
		t.Fatal("drift gate never fired over 0.2 km of creep")
	}
}

// TestTrackerFirstActivationIsDirty: a user first seen in epoch e has no
// cached rows and must be dirty regardless of movement; once refreshed and
// committed, standing still keeps it clean. A user absent from the last
// committed decision has no carried slot and is dirty on return.
func TestTrackerFirstActivationIsDirty(t *testing.T) {
	st := NewState[int](Config{MoveThresholdKm: 0.05, FullEvery: 100})
	still := func(int) geom.Point { return geom.Point{} }
	step := func(e int, keys []int) Plan {
		p := st.Plan(e, keys, still, nil)
		st.Commit(keys, local(t, len(keys)))
		return p
	}
	if p := step(0, []int{0, 1}); !p.Full {
		t.Fatalf("epoch 0: %+v", p)
	}
	p := step(1, []int{0, 1, 2})
	if p.Full {
		t.Fatalf("epoch 1 unexpectedly full: %+v", p)
	}
	if len(p.Dirty) != 1 || p.Dirty[0] != 2 {
		t.Fatalf("epoch 1 dirty = %v, want just the newcomer at active index 2", p.Dirty)
	}
	step(2, []int{0, 2})
	if p := step(3, []int{0, 1, 2}); p.Full || len(p.Dirty) != 1 || p.Dirty[0] != 1 {
		t.Fatalf("epoch 3: %+v, want only the returning user 1 dirty", p)
	}
}

// TestStateGainsReuseCache: clean rows are copied bit for bit from the
// row cache, refreshed rows are redrawn from the caller's per-row stream.
func TestStateGainsReuseCache(t *testing.T) {
	model := radio.DefaultPathLoss()
	sites := geom.HexLayout(3, 1.0)
	keys := []string{"a", "b", "c"}
	pos := []geom.Point{{X: 0.1}, {X: 0.2, Y: 0.3}, {X: -0.4}}
	at := func(i int) geom.Point { return pos[i] }
	root := simrand.New(5)
	stream := func(e int) func(int) *simrand.Source {
		return func(i int) *simrand.Source { return root.Derive(uint64(e)).Derive(uint64(i)) }
	}
	st := NewState[string](Config{MoveThresholdKm: 0.05})

	first := radio.NewTensorBuffer(3, len(sites), 2)
	p := st.Plan(0, keys, at, nil)
	if reused, err := st.Gains(p, keys, first, model, sites, at, stream(0)); err != nil || reused != 0 {
		t.Fatalf("full epoch: reused %d, err %v", reused, err)
	}
	st.Commit(keys, local(t, 3))

	pos[1].X += 0.1 // only b moves beyond the threshold
	second := radio.NewTensorBuffer(3, len(sites), 2)
	p = st.Plan(1, keys, at, nil)
	if p.Full || len(p.Dirty) != 1 || p.Dirty[0] != 1 {
		t.Fatalf("epoch 1: %+v, want a repair with b dirty", p)
	}
	reused, err := st.Gains(p, keys, second, model, sites, at, stream(1))
	if err != nil || reused != 2 {
		t.Fatalf("repair epoch: reused %d, err %v", reused, err)
	}
	want := radio.NewTensorBuffer(3, len(sites), 2)
	if err := want.RefreshUser(model, 1, pos[1], sites, stream(1)(1)); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		ref := first.UserBlock(i)
		if i == 1 {
			ref = want.UserBlock(1)
		}
		for k, g := range second.UserBlock(i) {
			if g != ref[k] {
				t.Fatalf("row %d gain %d = %g, want %g", i, k, g, ref[k])
			}
		}
	}
}

// TestStateIncumbent: the incumbent carries the last committed slots of
// the users present in it; anyone else starts local, and a skipped epoch
// drops every carried slot.
func TestStateIncumbent(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers, p.NumServers, p.NumChannels = 3, 2, 2
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// Strong, even channels: offloading beats local execution for
	// everyone, so only the carry rules decide who keeps a slot.
	for u := 0; u < sc.U(); u++ {
		for s := 0; s < sc.S(); s++ {
			for j := 0; j < sc.N(); j++ {
				sc.Gain.Set(u, s, j, 1e-9)
			}
		}
	}
	if err := sc.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := NewState[string](Config{})
	still := func(int) geom.Point { return geom.Point{} }
	keys := []string{"a", "b", "c"}
	st.Plan(0, keys[:2], still, nil)
	dec, err := assign.New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Offload(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := dec.Offload(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	st.Commit(keys[:2], dec)

	st.Plan(1, keys, still, nil)
	inc, err := st.Incumbent(sc, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][2]int{{1, 1}, {0, 0}, {assign.Local, assign.Local}} {
		if s, j := inc.SlotOf(i); s != want[0] || (s != assign.Local && j != want[1]) {
			t.Errorf("user %s carried (%d,%d), want (%d,%d)", keys[i], s, j, want[0], want[1])
		}
	}
	st.Skip(false)
	if inc, err = st.Incumbent(sc, keys); err != nil || inc.Offloaded() != 0 {
		t.Errorf("after a skip: %d carried offloaders (err %v), want none", inc.Offloaded(), err)
	}
}

// TestStateEviction bounds the state at maxTracked users: least recently
// seen users go first, ties broken by key.
func TestStateEviction(t *testing.T) {
	st := NewState[string](Config{})
	still := func(int) geom.Point { return geom.Point{} }
	last := []string{"u0"}
	for i := 0; i < maxTracked-3; i++ {
		last = append(last, fmt.Sprintf("v%05d", i))
	}
	for _, keys := range [][]string{{"u1", "u2"}, {"u3"}, last} {
		st.Plan(0, keys, still, nil)
	}
	st.Evict()
	if len(st.users) != maxTracked {
		t.Fatalf("%d users left, want %d", len(st.users), maxTracked)
	}
	if st.users["u1"] != nil {
		t.Error("u1, the least recently seen user with the lowest key, survived")
	}
	for _, k := range []string{"u0", "u2", "u3"} {
		if st.users[k] == nil {
			t.Errorf("%s evicted", k)
		}
	}
}

// TestCarryGuardsNegativeOffloads: a carried slot whose user now loses
// against local execution (J_u < 0, here a user whose channel to its old
// server collapsed) ends local, no carried offloader is left with
// J_u < 0, and the guarded incumbent scores at least the raw carry.
func TestCarryGuardsNegativeOffloads(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers, p.NumServers, p.NumChannels = 4, 2, 2
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < sc.N(); j++ {
		sc.Gain.Set(0, 0, j, 1e-22)
	}
	if err := sc.Finalize(); err != nil {
		t.Fatal(err)
	}
	slots := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	raw, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	for u, sl := range slots {
		if err := raw.Offload(u, sl[0], sl[1]); err != nil {
			t.Fatal(err)
		}
	}
	ev := objective.New(sc)
	rawRep := ev.Evaluate(raw)
	if j0 := rawRep.Users[0].Utility; j0 >= 0 {
		t.Fatalf("setup: user 0 carried at J_u = %g, want < 0", j0)
	}

	got, err := Carry(sc, func(i int) (int, int) { return slots[i][0], slots[i][1] })
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsLocal(0) {
		t.Error("user 0 kept a slot worse than local execution")
	}
	rep := ev.Evaluate(got)
	for u, m := range rep.Users {
		if m.Offloaded && m.Utility < 0 {
			t.Errorf("user %d carried at J_u = %g < 0", u, m.Utility)
		}
	}
	if rep.SystemUtility < rawRep.SystemUtility {
		t.Errorf("guarded incumbent %g below the raw carry %g", rep.SystemUtility, rawRep.SystemUtility)
	}
}

// TestStateRepair: an empty dirty set keeps the incumbent outright; a
// repair spends at most RepairBudget and never ends below its incumbent.
func TestStateRepair(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers, p.NumServers, p.NumChannels = 8, 3, 2
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 2000
	full, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState[int](Config{RepairEvalsPerUser: 100, RepairMinEvals: 150})
	incumbent, err := Carry(sc, func(i int) (int, int) { return i % 3, i / 3 })
	if err != nil {
		t.Fatal(err)
	}
	incJ := objective.New(sc).SystemUtility(incumbent)

	kept, err := st.Repair(sc, simrand.New(1), full, incumbent, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Utility != incJ || kept.Evaluations != 1 || !kept.Assignment.Equal(incumbent) {
		t.Errorf("clean repair: utility %g (incumbent %g), %d evaluations", kept.Utility, incJ, kept.Evaluations)
	}
	dirty := []int{0, 4}
	res, err := st.Repair(sc, simrand.New(1), full, incumbent, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utility < incJ {
		t.Errorf("repair %g fell below its incumbent %g", res.Utility, incJ)
	}
	if budget := st.cfg.RepairBudget(len(dirty), cfg.MaxEvaluations); res.Evaluations > budget {
		t.Errorf("repair spent %d evaluations, budget %d", res.Evaluations, budget)
	}
}
