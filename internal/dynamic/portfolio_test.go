package dynamic

import (
	"testing"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/solver"
)

// portfolioFaultConfig is the PR-1 outage replay with the per-epoch solve
// widened to a 4-chain portfolio.
func portfolioFaultConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig()
	cfg.WarmStart = true
	cfg.Epochs = 8
	cfg.ActiveProb = 0.9
	cfg.Portfolio = &solver.PortfolioOptions{Chains: 4}
	cfg.FaultPlan = testPlan(t, cfg, faults.Config{
		ServerFailProb:    0.35,
		ServerRecoverProb: 0.4,
		CoordFailProb:     0.3,
		CoordRecoverProb:  0.6,
	})
	return cfg
}

func TestPortfolioChainsValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Portfolio = &solver.PortfolioOptions{Chains: -1}
	if _, err := Run(cfg); err == nil {
		t.Error("negative chain count accepted")
	}
	cfg = testConfig()
	cfg.Portfolio = &solver.PortfolioOptions{Chains: 4}
	cfg.Scheduler = &baseline.Greedy{}
	if _, err := Run(cfg); err == nil {
		t.Error("portfolio chains with a custom scheduler accepted")
	}
}

// TestPortfolioFaultReplayGracefulDegradation replays the PR-1 outage plan
// with the portfolio solver: degraded epochs still fall back to local
// execution, masked servers never appear in the merged best assignment
// (enforced by solver.Verify inside Run, which rejects occupied masked
// slots), and the injected faults actually fire.
func TestPortfolioFaultReplayGracefulDegradation(t *testing.T) {
	cfg := portfolioFaultConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawDown, sawCoordDown := false, false
	for _, e := range res.Epochs {
		if e.DownServers != len(cfg.FaultPlan.DownServers(e.Epoch)) {
			t.Errorf("epoch %d reports %d down servers, plan says %d",
				e.Epoch, e.DownServers, len(cfg.FaultPlan.DownServers(e.Epoch)))
		}
		sawDown = sawDown || e.DownServers > 0
		if e.CoordinatorDown {
			sawCoordDown = true
			if e.Offloaded != 0 || e.Utility != 0 {
				t.Errorf("degraded epoch %d still offloaded: %+v", e.Epoch, e)
			}
		}
	}
	if !sawDown || !sawCoordDown {
		t.Fatalf("plan injected no faults (down=%v coord=%v); raise probabilities", sawDown, sawCoordDown)
	}
	if res.ServerAvailability >= 1 {
		t.Errorf("server availability %g with injected outages", res.ServerAvailability)
	}
}

// TestPortfolioFaultReplayDeterministic runs the same faulty portfolio
// replay three times — twice as-is and once with a different worker cap —
// and demands identical decisions epoch by epoch: the outage plan, the
// warm starts, and the K-chain reduction must all be pure functions of the
// seed.
func TestPortfolioFaultReplayDeterministic(t *testing.T) {
	runs := make([]*Result, 3)
	for i, workers := range []int{0, 0, 1} {
		cfg := portfolioFaultConfig(t)
		cfg.Portfolio.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	for i, other := range runs[1:] {
		if len(other.Epochs) != len(runs[0].Epochs) {
			t.Fatalf("run %d epoch count %d != %d", i+1, len(other.Epochs), len(runs[0].Epochs))
		}
		for e := range runs[0].Epochs {
			a, b := runs[0].Epochs[e], other.Epochs[e]
			// SolveTime is wall clock; everything else must match bit
			// for bit.
			if a.Active != b.Active || a.Offloaded != b.Offloaded ||
				a.Utility != b.Utility || a.MeanDelayS != b.MeanDelayS ||
				a.MeanEnergyJ != b.MeanEnergyJ || a.Evaluations != b.Evaluations ||
				a.WarmStarted != b.WarmStarted || a.DownServers != b.DownServers ||
				a.Evacuated != b.Evacuated || a.CoordinatorDown != b.CoordinatorDown {
				t.Errorf("run %d epoch %d diverged:\n  %+v\n  %+v", i+1, e, a, b)
			}
		}
		if other.TotalUtility != runs[0].TotalUtility {
			t.Errorf("run %d total utility %g != %g", i+1, other.TotalUtility, runs[0].TotalUtility)
		}
	}
}

// TestPortfolioFaultFreeReplaySane sanity-checks the wiring: a fault-free
// 4-chain replay must produce positive total utility (feasibility and
// determinism are covered by the tests above; a collapse to zero would
// flag a portfolio integration bug).
func TestPortfolioFaultFreeReplaySane(t *testing.T) {
	cfg := testConfig()
	cfg.Portfolio = &solver.PortfolioOptions{Chains: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalUtility <= 0 {
		t.Errorf("portfolio replay total utility %g; expected positive", res.TotalUtility)
	}
	if res.MemberTotals != nil {
		t.Error("fixed-mode replay reported member totals")
	}
}

func TestAdaptivePortfolioValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Portfolio = &solver.PortfolioOptions{Adaptive: true}
	if _, err := Run(cfg); err == nil {
		t.Error("adaptive mode without chains accepted")
	}
	cfg = testConfig()
	cfg.Portfolio = &solver.PortfolioOptions{Chains: 1, Members: []string{"ttsa", "cheap"}}
	if _, err := Run(cfg); err == nil {
		t.Error("member roster without chains accepted")
	}
	cfg = testConfig()
	cfg.Portfolio = &solver.PortfolioOptions{Chains: 2, Members: []string{"bogus"}}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown member name accepted")
	}
}

// TestAdaptiveReplayDeterministic runs the adaptive-portfolio replay twice
// at different worker caps: epoch metrics and the per-member totals must be
// identical, because the selector learns only from the committed epoch
// prefix and every stream is seed-derived.
func TestAdaptiveReplayDeterministic(t *testing.T) {
	runs := make([]*Result, 3)
	for i, workers := range []int{0, 0, 1} {
		cfg := testConfig()
		cfg.Epochs = 8
		cfg.ActiveProb = 0.9
		cfg.Portfolio = &solver.PortfolioOptions{Chains: 4, Workers: workers, Adaptive: true}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	base := runs[0]
	if base.MemberTotals == nil {
		t.Fatal("adaptive replay reported no member totals")
	}
	var slots uint64
	for _, mt := range base.MemberTotals {
		slots += mt.Slots
	}
	// Every scheduled epoch ran Chains slots (epochs with zero active users
	// skip the solve entirely and never reach the portfolio).
	scheduled := 0
	for _, e := range base.Epochs {
		if e.Active > 0 {
			scheduled++
		}
	}
	if slots != uint64(4*scheduled) {
		t.Errorf("member totals cover %d slots, want %d (4 chains x %d scheduled epochs)", slots, 4*scheduled, scheduled)
	}
	for i, other := range runs[1:] {
		for e := range base.Epochs {
			a, b := base.Epochs[e], other.Epochs[e]
			if a.Utility != b.Utility || a.Offloaded != b.Offloaded || a.Evaluations != b.Evaluations {
				t.Errorf("run %d epoch %d diverged: %+v vs %+v", i+1, e, a, b)
			}
		}
		for m := range base.MemberTotals {
			a, b := base.MemberTotals[m], other.MemberTotals[m]
			if a.Member != b.Member || a.Slots != b.Slots || a.Wins != b.Wins || a.Evaluations != b.Evaluations {
				t.Errorf("run %d member %s totals diverged: %+v vs %+v", i+1, a.Member, a, b)
			}
		}
	}
}
