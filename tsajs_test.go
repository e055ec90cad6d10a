package tsajs_test

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/tsajs/tsajs"
)

func buildSmall(t *testing.T) *tsajs.Scenario {
	t.Helper()
	p := tsajs.DefaultParams()
	p.NumUsers = 8
	p.NumServers = 3
	p.NumChannels = 2
	p.Workload.WorkCycles = 2500e6
	p.Seed = 4
	sc, err := tsajs.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestPublicAPISchedulers(t *testing.T) {
	sc := buildSmall(t)
	schedulers := []tsajs.Scheduler{
		tsajs.NewScheduler(),
		tsajs.NewExhaustive(),
		tsajs.NewHJTORA(),
		tsajs.NewGreedy(),
		tsajs.NewLocalSearch(),
	}
	utilities := make(map[string]float64, len(schedulers))
	for _, s := range schedulers {
		res, err := s.Schedule(sc, tsajs.NewRand(1))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := tsajs.Verify(sc, res); err != nil {
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
	res, err := tsajs.NewScheduler().Schedule(sc, tsajs.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	// The three utility views agree: Result.Utility, SystemUtility, and
	// the report's weighted sum.
	direct := tsajs.SystemUtility(sc, res.Assignment)
	rep := tsajs.Evaluate(sc, res.Assignment)
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
	f := tsajs.KKTAllocation(sc, res.Assignment)
	for u := range f.FUs {
		if math.Abs(f.FUs[u]-res.Allocation.FUs[u]) > 1e-6 {
			t.Errorf("user %d allocation mismatch: %g vs %g", u, f.FUs[u], res.Allocation.FUs[u])
		}
	}
}

func TestPublicAPIAssignmentWorkflow(t *testing.T) {
	sc := buildSmall(t)
	a, err := tsajs.NewAssignment(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := tsajs.SystemUtility(sc, a); got != 0 {
		t.Errorf("all-local utility = %g", got)
	}
	if err := a.Offload(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if a.Offloaded() != 1 {
		t.Errorf("offloaded = %d", a.Offloaded())
	}
	if tsajs.Local != -1 {
		t.Errorf("Local constant = %d", tsajs.Local)
	}
}

func TestPublicAPICustomConfig(t *testing.T) {
	cfg := tsajs.DefaultConfig()
	cfg.InnerIterations = 10
	cfg.MaxEvaluations = 500
	s, err := tsajs.NewSchedulerWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := buildSmall(t)
	res, err := s.Schedule(sc, tsajs.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 500 {
		t.Errorf("evaluations %d over cap", res.Evaluations)
	}
	bad := tsajs.DefaultConfig()
	bad.CoolNormal = 2
	if _, err := tsajs.NewSchedulerWith(bad); err == nil {
		t.Error("invalid config accepted")
	}
	lsCfg := tsajs.LocalSearchConfig{MaxIterations: 100, Patience: 50, InitOffloadProb: 0.5}
	if _, err := tsajs.NewLocalSearchWith(lsCfg); err != nil {
		t.Errorf("valid local search config rejected: %v", err)
	}
}

func TestPublicAPIScenarioJSON(t *testing.T) {
	sc := buildSmall(t)
	blob, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back tsajs.Scenario
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	// Solving the decoded scenario with the same seed reproduces the
	// original result bit for bit.
	a, err := tsajs.NewScheduler().Schedule(sc, tsajs.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tsajs.NewScheduler().Schedule(&back, tsajs.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || !a.Assignment.Equal(b.Assignment) {
		t.Error("JSON round-trip changed scheduling behaviour")
	}
}

func TestPublicAPIFigures(t *testing.T) {
	figs := tsajs.Figures()
	if len(figs) != 7 {
		t.Fatalf("Figures() = %v", figs)
	}
	tables, err := tsajs.RunFigure("fig3", tsajs.ExperimentOptions{Trials: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("fig3 panels = %d", len(tables))
	}
	if err := tables[0].Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := tsajs.RunFigure("nope", tsajs.ExperimentOptions{}); err == nil {
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
	res, err := tsajs.NewScheduler().Schedule(sc, tsajs.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := tsajs.Verify(sc, res); err != nil {
		t.Fatal(err)
	}
	// Invalid mutation must be rejected.
	sc.Users[2].BetaTime = 0.9 // betas no longer sum to 1
	if err := sc.Finalize(); err == nil {
		t.Error("Finalize accepted inconsistent betas")
	}
}
