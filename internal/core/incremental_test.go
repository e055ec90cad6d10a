package core_test

import (
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// TestIncrementalModeNearIdentical: TTSA prices its candidates with the
// tracked evaluator (objective.Incremental); a run must stay feasible,
// never claim more than the exhaustive optimum, and find it to within 2% on
// tiny instances.
func TestIncrementalModeNearIdentical(t *testing.T) {
	ex := &baseline.Exhaustive{}
	for _, seed := range []uint64{1, 2, 3} {
		sc := tinyScenario(t, seed)
		opt, err := ex.Schedule(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewDefault().Schedule(sc, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := solver.Verify(sc, res); err != nil {
			t.Fatal(err)
		}
		if res.Utility > opt.Utility+1e-9 {
			t.Fatalf("seed %d: incremental TTSA %.9f beats the optimum %.9f — delta evaluation is wrong",
				seed, res.Utility, opt.Utility)
		}
		if opt.Utility > 0 && res.Utility < 0.98*opt.Utility {
			t.Errorf("seed %d: incremental TTSA %.6f below 98%% of optimum %.6f",
				seed, res.Utility, opt.Utility)
		}
	}
}

// TestIncrementalResultUtilityConsistent: the anneal's best utility, priced
// by the tracked evaluator move by move, equals the Result's utility, which
// solver.Finish recomputes from scratch with SystemUtility — bit for bit,
// so the tracked cache cannot drift from the true objective.
func TestIncrementalResultUtilityConsistent(t *testing.T) {
	for _, seed := range []uint64{83, 84, 85} {
		sc := tinyScenarioWithUsers(t, seed, 14)
		res, trace, err := core.NewDefault().ScheduleTrace(sc, simrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		best := trace[len(trace)-1].Best
		if math.Float64bits(best) != math.Float64bits(res.Utility) {
			t.Errorf("seed %d: tracked best %.17g, recomputed %.17g", seed, best, res.Utility)
		}
	}
}

// TestIncrementalDeterministic: a capped solve priced by the tracked
// evaluator is deterministic in the seed.
func TestIncrementalDeterministic(t *testing.T) {
	sc := tinyScenarioWithUsers(t, 89, 12)
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 3000
	ts, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ts.Schedule(sc, simrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ts.Schedule(sc, simrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || !a.Assignment.Equal(b.Assignment) {
		t.Error("capped solve not deterministic")
	}
}
