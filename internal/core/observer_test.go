package core_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// recorder captures every SolveStats report.
type recorder struct {
	mu    sync.Mutex
	stats []solver.SolveStats
}

func (r *recorder) ObserveSolve(s solver.SolveStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = append(r.stats, s)
}

func sameDecision(t *testing.T, a, b solver.Result) {
	t.Helper()
	if math.Float64bits(a.Utility) != math.Float64bits(b.Utility) {
		t.Errorf("utility %v != %v", a.Utility, b.Utility)
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("evaluations %d != %d", a.Evaluations, b.Evaluations)
	}
	for u := 0; u < a.Assignment.Users(); u++ {
		as, aj := a.Assignment.SlotOf(u)
		bs, bj := b.Assignment.SlotOf(u)
		if as != bs || aj != bj {
			t.Errorf("user %d assigned (%d,%d) vs (%d,%d)", u, as, aj, bs, bj)
		}
	}
}

// TestObserverInvisibleToResult is the differential guarantee behind all
// solver instrumentation: attaching an observer — whether a plain recorder
// or the full obs.SolverMetrics pipeline — must leave the returned Result
// bit-identical for every seed, because observers only read final state and
// never consume randomness.
func TestObserverInvisibleToResult(t *testing.T) {
	ttsa, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	instrumented := ttsa.WithObserver(obs.NewSolverMetrics(reg))
	recording := ttsa.WithObserver(&recorder{})

	for seed := uint64(1); seed <= 8; seed++ {
		sc := tinyScenario(t, seed)
		plain, err := ttsa.Schedule(sc, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		withMetrics, err := instrumented.Schedule(sc, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		withRecorder, err := recording.Schedule(sc, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		sameDecision(t, plain, withMetrics)
		sameDecision(t, plain, withRecorder)
	}
}

// TestObserverStatsConsistent checks the telemetry against the result it
// describes: one report per solve, matching evaluation count and utility,
// and move counts that add up to the priced candidates.
func TestObserverStatsConsistent(t *testing.T) {
	ttsa, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	instrumented := ttsa.WithObserver(rec)

	sc := tinyScenario(t, 3)
	res, err := instrumented.Schedule(sc, simrand.New(3))
	if err != nil {
		t.Fatal(err)
	}

	if len(rec.stats) != 1 {
		t.Fatalf("observer called %d times, want 1", len(rec.stats))
	}
	s := rec.stats[0]
	if s.Scheme != "TSAJS" {
		t.Errorf("scheme = %q", s.Scheme)
	}
	if s.Evaluations != res.Evaluations {
		t.Errorf("stats evaluations = %d, result = %d", s.Evaluations, res.Evaluations)
	}
	if math.Float64bits(s.Utility) != math.Float64bits(res.Utility) {
		t.Errorf("stats utility = %v, result = %v", s.Utility, res.Utility)
	}
	if s.Chains != 1 {
		t.Errorf("chains = %d, want 1", s.Chains)
	}
	if s.Stages <= 0 || s.Elapsed <= 0 {
		t.Errorf("stages = %d, elapsed = %v; want both positive", s.Stages, s.Elapsed)
	}
	if s.AcceleratedStages < 0 || s.AcceleratedStages > s.Stages {
		t.Errorf("accelerated stages = %d of %d", s.AcceleratedStages, s.Stages)
	}
	moves := s.AcceptedBetter + s.AcceptedWorse + s.Rejected
	if moves <= 0 || moves > s.Evaluations {
		t.Errorf("move counts %d+%d+%d outside (0, %d]",
			s.AcceptedBetter, s.AcceptedWorse, s.Rejected, s.Evaluations)
	}

	// The metrics pipeline renders the same numbers.
	reg := obs.NewRegistry()
	obs.NewSolverMetrics(reg).ObserveSolve(s)
	text := string(reg.PrometheusText())
	for _, want := range []string{
		`tsajs_solver_solves_total{scheme="TSAJS"} 1`,
		`tsajs_solver_chains_total{scheme="TSAJS"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered metrics missing %q:\n%s", want, text)
		}
	}
}

// TestWithConfigKeepsObserver: a reconfigured copy runs the new config,
// still reports to the original observer, and rejects an invalid config.
func TestWithConfigKeepsObserver(t *testing.T) {
	ttsa, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 300
	short, err := ttsa.WithObserver(rec).WithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if short.Config() != cfg {
		t.Fatalf("config %+v, want %+v", short.Config(), cfg)
	}
	res, err := short.Schedule(tinyScenario(t, 1), simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > cfg.MaxEvaluations {
		t.Errorf("spent %d evaluations, cap %d", res.Evaluations, cfg.MaxEvaluations)
	}
	if len(rec.stats) != 1 {
		t.Errorf("observer saw %d solves, want 1", len(rec.stats))
	}
	cfg.MinTemp = 0
	if _, err := ttsa.WithConfig(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}
