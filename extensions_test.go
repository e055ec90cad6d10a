package tsajs_test

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/dynamic"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/spec"
	"github.com/tsajs/tsajs/internal/task"
)

func TestRunSpecPublicAPI(t *testing.T) {
	sp, err := spec.Parse([]byte(`{
		"title": "api sweep",
		"sweep": "workMcycles",
		"values": [1000, 3000],
		"schemes": ["greedy"],
		"trials": 2,
		"base": {"users": 6, "servers": 3, "channels": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	table, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	// Utility grows with workload (the Fig. 6 shape) even in this tiny
	// custom sweep.
	series := table.Series[0]
	if series.Points[1].Mean < series.Points[0].Mean {
		t.Errorf("utility fell with workload: %v", series.Points)
	}
	if _, err := spec.Parse([]byte(`{"title":"x"}`)); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestRunDynamicPublicAPI(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers = 10
	p.NumServers = 3
	p.NumChannels = 2
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 800
	res, err := dynamic.Run(dynamic.Config{
		Params:     p,
		Epochs:     3,
		ActiveProb: 0.7,
		WarmStart:  true,
		TTSAConfig: &cfg,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
}

func TestCoordinatorPublicAPI(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumServers = 3
	p.NumChannels = 2
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 800
	coord, err := cran.NewServer("127.0.0.1:0", cran.ServerConfig{
		Params:      p,
		BatchWindow: 10 * time.Millisecond,
		TTSA:        &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cli, err := cran.Dial(coord.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cli.Offload(ctx, cran.OffloadRequest{
		UserID: "api",
		Pos:    geom.Point{X: 0.1},
		Task:   task.Task{DataBits: 1e6, WorkCycles: 3e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.UserID != "api" {
		t.Errorf("user = %q", resp.UserID)
	}
}

func TestResiliencePublicAPI(t *testing.T) {
	// No coordinator listening: the resilient client must still answer
	// with a valid degraded local decision.
	cli, err := cran.DialResilient("127.0.0.1:1", cran.ResilienceConfig{
		MaxAttempts: 1,
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := cli.Offload(ctx, cran.OffloadRequest{
		UserID: "degraded",
		Task:   task.Task{DataBits: 1e6, WorkCycles: 3e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Offload || resp.ExpectedDelayS <= 0 {
		t.Errorf("want degraded local decision, got %+v", resp)
	}
}

func TestFaultPlanPublicAPI(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers = 10
	p.NumServers = 3
	p.NumChannels = 2
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 800
	plan, err := faults.Generate(faults.Config{
		ServerFailProb: 0.4,
		CoordFailProb:  0.3,
	}, p.NumServers, 6, simrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynamic.Run(dynamic.Config{
		Params:     p,
		Epochs:     6,
		ActiveProb: 0.8,
		WarmStart:  true,
		TTSAConfig: &cfg,
		Seed:       4,
		FaultPlan:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerAvailability <= 0 || res.ServerAvailability > 1 {
		t.Errorf("server availability = %g", res.ServerAvailability)
	}
}

func TestTTSAPublicTraceAndMultiStart(t *testing.T) {
	sc := buildSmall(t)
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 1000
	ttsa, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, trace, err := ttsa.ScheduleTrace(sc, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Error("no trace points")
	}
	warm, err := ttsa.ScheduleFrom(sc, simrand.New(2), res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Utility < res.Utility-1e-9 {
		t.Errorf("warm start %.6f regressed below its seed %.6f", warm.Utility, res.Utility)
	}
	ms, err := portfolio.New(cfg, solver.PortfolioOptions{Chains: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Schedule(sc, simrand.New(3)); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenUtilityRegression pins the objective computation for a fixed
// scenario and decision. Any unintended change to the radio model, the
// cost terms, or the KKT allocation will move this number.
func TestGoldenUtilityRegression(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers = 6
	p.NumServers = 3
	p.NumChannels = 2
	p.Workload.WorkCycles = 3000e6
	p.Seed = 12345
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		if err := a.Offload(u, u%3, u/3); err != nil {
			t.Fatal(err)
		}
	}
	got := objective.New(sc).SystemUtility(a)
	// Recorded from the validated implementation (Eq. 24 = Eq. 11 to
	// 1e-9; TSAJS == exhaustive optimum across Fig. 3). The arbitrary
	// forced decision offloads far users, hence the large negative value.
	// Tolerate small cross-platform libm drift only.
	const want = -110.662283703748
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("golden utility = %.9f, want %.9f — objective changed", got, want)
	}
}
