package tsajs_test

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/alloc"
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/experiment"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

func buildSmall(t *testing.T) *scenario.Scenario {
	t.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = 8
	p.NumServers = 3
	p.NumChannels = 2
	p.Workload.WorkCycles = 2500e6
	p.Seed = 4
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestPublicAPISchedulers(t *testing.T) {
	sc := buildSmall(t)
	schedulers := []solver.Scheduler{
		core.NewDefault(),
		&baseline.Exhaustive{},
		&baseline.HJTORA{},
		&baseline.Greedy{},
		baseline.NewDefaultLocalSearch(),
	}
	utilities := make(map[string]float64, len(schedulers))
	for _, s := range schedulers {
		res, err := s.Schedule(sc, simrand.New(1))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := solver.Verify(sc, res); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		utilities[res.Scheme] = res.Utility
	}
	for scheme, u := range utilities {
		if scheme == "Exhaustive" {
			continue
		}
		if u > utilities["Exhaustive"]+1e-9 {
			t.Errorf("%s utility %.6f exceeds the exhaustive optimum %.6f",
				scheme, u, utilities["Exhaustive"])
		}
	}
	if utilities["TSAJS"] < 0.95*utilities["Exhaustive"] {
		t.Errorf("TSAJS %.6f below 95%% of optimum %.6f", utilities["TSAJS"], utilities["Exhaustive"])
	}
}

func TestPublicAPIEvaluation(t *testing.T) {
	sc := buildSmall(t)
	res, err := core.NewDefault().Schedule(sc, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// The three utility views agree: Result.Utility, SystemUtility, and
	// the report's weighted sum.
	eval := objective.New(sc)
	direct := eval.SystemUtility(res.Assignment)
	rep := eval.Evaluate(res.Assignment)
	if math.Abs(direct-res.Utility) > 1e-9 {
		t.Errorf("SystemUtility %.9f != Result.Utility %.9f", direct, res.Utility)
	}
	if math.Abs(rep.SystemUtility-res.Utility) > 1e-9 {
		t.Errorf("Report utility %.9f != Result.Utility %.9f", rep.SystemUtility, res.Utility)
	}
	if len(rep.Users) != sc.U() {
		t.Errorf("report covers %d users, want %d", len(rep.Users), sc.U())
	}
	// The KKT allocation accessor agrees with the result's allocation.
	f, _ := alloc.KKT(sc, res.Assignment)
	for u := range f.FUs {
		if math.Abs(f.FUs[u]-res.Allocation.FUs[u]) > 1e-6 {
			t.Errorf("user %d allocation mismatch: %g vs %g", u, f.FUs[u], res.Allocation.FUs[u])
		}
	}
}

func TestPublicAPIAssignmentWorkflow(t *testing.T) {
	sc := buildSmall(t)
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	if got := objective.New(sc).SystemUtility(a); got != 0 {
		t.Errorf("all-local utility = %g", got)
	}
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if a.Offloaded() != 1 {
		t.Errorf("offloaded = %d", a.Offloaded())
	}
	if assign.Local != -1 {
		t.Errorf("Local constant = %d", assign.Local)
	}
}

func TestPublicAPICustomConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.InnerIterations = 10
	cfg.MaxEvaluations = 500
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := buildSmall(t)
	res, err := s.Schedule(sc, simrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 500 {
		t.Errorf("evaluations %d over cap", res.Evaluations)
	}
	bad := core.DefaultConfig()
	bad.CoolNormal = 2
	if _, err := core.New(bad); err == nil {
		t.Error("invalid config accepted")
	}
	lsCfg := baseline.LocalSearchConfig{MaxIterations: 100, Patience: 50, InitOffloadProb: 0.5}
	if _, err := baseline.NewLocalSearch(lsCfg); err != nil {
		t.Errorf("valid local search config rejected: %v", err)
	}
}

func TestPublicAPIScenarioJSON(t *testing.T) {
	sc := buildSmall(t)
	blob, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Scenario
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	// Solving the decoded scenario with the same seed reproduces the
	// original result bit for bit.
	a, err := core.NewDefault().Schedule(sc, simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewDefault().Schedule(&back, simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || !a.Assignment.Equal(b.Assignment) {
		t.Error("JSON round-trip changed scheduling behaviour")
	}
}

func TestPublicAPIFigures(t *testing.T) {
	figs := experiment.Figures()
	if len(figs) != 7 {
		t.Fatalf("Figures() = %v", figs)
	}
	tables, err := experiment.Run("fig3", experiment.Options{Trials: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("fig3 panels = %d", len(tables))
	}
	if err := tables[0].Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.Run("nope", experiment.Options{}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestHeterogeneousUsersViaFinalize(t *testing.T) {
	// The smartcity-example workflow: mutate users, re-Finalize, solve.
	sc := buildSmall(t)
	sc.Users[0].Lambda = 0.1
	sc.Users[1].BetaTime = 0.9
	sc.Users[1].BetaEnergy = 0.1
	if err := sc.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := core.NewDefault().Schedule(sc, simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(sc, res); err != nil {
		t.Fatal(err)
	}
	// Invalid mutation must be rejected.
	sc.Users[2].BetaTime = 0.9 // betas no longer sum to 1
	if err := sc.Finalize(); err == nil {
		t.Error("Finalize accepted inconsistent betas")
	}
}
