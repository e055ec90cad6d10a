package baseline

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

func buildScenario(t *testing.T, users, servers, channels int, seed uint64) *scenario.Scenario {
	t.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = users
	p.NumServers = servers
	p.NumChannels = channels
	p.Workload.WorkCycles = 3000e6
	p.Seed = seed
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestExhaustiveFindsTrueOptimum(t *testing.T) {
	// Cross-check the DFS against an independent oracle: random sampling
	// of many feasible decisions can never beat it.
	sc := buildScenario(t, 4, 2, 2, 9)
	res, err := (&Exhaustive{}).Schedule(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(sc, res); err != nil {
		t.Fatal(err)
	}
	eval := objective.New(sc)
	rng := simrand.New(1)
	for trial := 0; trial < 3000; trial++ {
		a, err := solver.RandomFeasible(sc, rng, rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if j := eval.SystemUtility(a); j > res.Utility+1e-9 {
			t.Fatalf("random decision %v beats 'optimum': %.9f > %.9f", a, j, res.Utility)
		}
	}
}

func TestExhaustiveCountsLeaves(t *testing.T) {
	// U=2, S=1, N=1: decisions are LL, LO, OL (both offloaded is
	// infeasible with one slot) => 3 leaf evaluations + initial.
	sc := buildScenario(t, 2, 1, 1, 3)
	res, err := (&Exhaustive{}).Schedule(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 4 {
		t.Errorf("evaluations = %d, want 4 (3 leaves + initial)", res.Evaluations)
	}
}

func TestExhaustiveRefusesLargeSpaces(t *testing.T) {
	sc := buildScenario(t, 30, 9, 3, 4)
	_, err := (&Exhaustive{}).Schedule(sc, nil)
	if err == nil {
		t.Fatal("exhaustive accepted a 28^30 search space")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("unexpected error: %v", err)
	}
	// A custom limit can loosen the guard.
	small := buildScenario(t, 4, 2, 2, 4)
	if _, err := (&Exhaustive{Limit: 1e12}).Schedule(small, nil); err != nil {
		t.Errorf("custom limit rejected a tiny instance: %v", err)
	}
}

func TestGreedyFeasibleAndNonNegativeGain(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		sc := buildScenario(t, 12, 3, 2, seed)
		res, err := (&Greedy{}).Schedule(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := solver.Verify(sc, res); err != nil {
			t.Fatal(err)
		}
		// The permissibility rule guarantees at least the all-local
		// utility of zero.
		if res.Utility < 0 {
			t.Errorf("seed %d: greedy utility %.6f below all-local zero", seed, res.Utility)
		}
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	// More users than slots: greedy must stop at capacity.
	sc := buildScenario(t, 10, 2, 2, 6)
	res, err := (&Greedy{}).Schedule(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Offloaded() > 4 {
		t.Errorf("offloaded %d users onto 4 slots", res.Assignment.Offloaded())
	}
}

func TestGreedyDeterministic(t *testing.T) {
	sc := buildScenario(t, 8, 3, 2, 7)
	a, err := (&Greedy{}).Schedule(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Greedy{}).Schedule(sc, simrand.New(99)) // rng must be ignored
	if err != nil {
		t.Fatal(err)
	}
	if !a.Assignment.Equal(b.Assignment) {
		t.Error("greedy is not deterministic")
	}
}

func TestLocalSearchConfigValidate(t *testing.T) {
	if err := DefaultLocalSearchConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*LocalSearchConfig)
	}{
		{name: "zero iterations", mutate: func(c *LocalSearchConfig) { c.MaxIterations = 0 }},
		{name: "zero patience", mutate: func(c *LocalSearchConfig) { c.Patience = 0 }},
		{name: "bad prob", mutate: func(c *LocalSearchConfig) { c.InitOffloadProb = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultLocalSearchConfig()
			tt.mutate(&cfg)
			if _, err := NewLocalSearch(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestLocalSearchImprovesMonotonically(t *testing.T) {
	// LocalSearch accepts only improvements, so its result must be at
	// least as good as its own starting point.
	sc := buildScenario(t, 10, 3, 2, 8)
	cfg := DefaultLocalSearchConfig()
	ls, err := NewLocalSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	init, err := solver.RandomFeasible(sc, simrand.New(5), cfg.InitOffloadProb)
	if err != nil {
		t.Fatal(err)
	}
	initJ := objective.New(sc).SystemUtility(init)
	res, err := ls.Schedule(sc, simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Utility < initJ-1e-9 {
		t.Errorf("local search %.6f ended below its start %.6f", res.Utility, initJ)
	}
	if err := solver.Verify(sc, res); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchHonorsBudget(t *testing.T) {
	sc := buildScenario(t, 10, 3, 2, 9)
	ls, err := NewLocalSearch(LocalSearchConfig{MaxIterations: 50, Patience: 50, InitOffloadProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Schedule(sc, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 51 {
		t.Errorf("evaluations = %d exceeds budget", res.Evaluations)
	}
}

func TestHJTORAIsLocallyOptimal(t *testing.T) {
	// hJTORA stops at a single-move local optimum: no retraction and no
	// placement onto a free slot may improve its final utility.
	sc := buildScenario(t, 6, 3, 2, 10)
	res, err := (&HJTORA{}).Schedule(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(sc, res); err != nil {
		t.Fatal(err)
	}
	eval := objective.New(sc)
	final := res.Assignment
	for u := 0; u < sc.U(); u++ {
		s0, j0 := final.SlotOf(u)
		if s0 != assign.Local {
			cand := final.Clone()
			cand.SetLocal(u)
			if j := eval.SystemUtility(cand); j > res.Utility+1e-9 {
				t.Errorf("retracting user %d improves utility %.9f -> %.9f", u, res.Utility, j)
			}
		}
		for s := 0; s < sc.S(); s++ {
			for j := 0; j < sc.N(); j++ {
				if final.Occupant(s, j) != assign.Local {
					continue
				}
				cand := final.Clone()
				if err := cand.Offload(u, s, j); err != nil {
					t.Fatal(err)
				}
				if jv := eval.SystemUtility(cand); jv > res.Utility+1e-9 {
					t.Errorf("moving user %d from (%d,%d) to (%d,%d) improves %.9f -> %.9f",
						u, s0, j0, s, j, res.Utility, jv)
				}
			}
		}
	}
}

func TestHJTORANearOptimalOnTinyInstances(t *testing.T) {
	// The paper reports hJTORA within about 1% of the optimum on average
	// on the Fig. 3 configuration. Steepest ascent can land in a deep
	// local optimum on an unlucky instance, so the assertion is on the
	// mean ratio across seeds, with a loose per-instance floor.
	var ratioSum float64
	seeds := []uint64{11, 12, 13, 14, 15, 16, 17, 18}
	for _, seed := range seeds {
		sc := buildScenario(t, 5, 3, 2, seed)
		opt, err := (&Exhaustive{}).Schedule(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&HJTORA{}).Schedule(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Utility > opt.Utility+1e-9 {
			t.Fatalf("seed %d: hJTORA %.9f beats the optimum %.9f", seed, got.Utility, opt.Utility)
		}
		if opt.Utility <= 0 {
			continue
		}
		ratio := got.Utility / opt.Utility
		if ratio < 0.75 {
			t.Errorf("seed %d: hJTORA ratio %.4f below the 0.75 floor", seed, ratio)
		}
		ratioSum += ratio
	}
	if mean := ratioSum / float64(len(seeds)); mean < 0.95 {
		t.Errorf("mean hJTORA/optimum ratio %.4f, want >= 0.95", mean)
	}
}

func TestSchedulerNames(t *testing.T) {
	tests := []struct {
		sched solver.Scheduler
		want  string
	}{
		{sched: &Exhaustive{}, want: "Exhaustive"},
		{sched: &Greedy{}, want: "Greedy"},
		{sched: &HJTORA{}, want: "hJTORA"},
		{sched: NewDefaultLocalSearch(), want: "LocalSearch"},
	}
	for _, tt := range tests {
		if got := tt.sched.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestAllBaselinesOnSameInstanceOrdering(t *testing.T) {
	// Exhaustive dominates everything on a small instance.
	sc := buildScenario(t, 6, 3, 2, 14)
	opt, err := (&Exhaustive{}).Schedule(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []solver.Scheduler{&HJTORA{}, &Greedy{}, NewDefaultLocalSearch()} {
		res, err := sched.Schedule(sc, simrand.New(3))
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if res.Utility > opt.Utility+1e-9 {
			t.Errorf("%s utility %.9f exceeds the exhaustive optimum %.9f",
				sched.Name(), res.Utility, opt.Utility)
		}
	}
}

// TestLocalSearchGolden pins LocalSearch's result — utility bits, the
// decision and the evaluation count — over a grid of scenarios and seeds,
// so a change to how it walks the Algorithm 2 neighbourhood must leave
// every climb exactly where it was.
func TestLocalSearchGolden(t *testing.T) {
	const want = "0ebf74ade1163a91"
	ls := NewDefaultLocalSearch()
	h := fnv.New64a()
	for _, users := range []int{6, 20, 40} {
		sc := buildScenario(t, users, 4, 3, uint64(users))
		for seed := uint64(1); seed <= 6; seed++ {
			res, err := ls.Schedule(sc, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%x %d %v\n", res.Utility, res.Evaluations, res.Assignment)
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("local search digest = %s, want %s", got, want)
	}
}
