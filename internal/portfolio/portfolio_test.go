package portfolio

import (
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// testScenario builds a small instance that solves in milliseconds.
func testScenario(t testing.TB, seed uint64) *scenario.Scenario {
	t.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = 12
	p.NumServers = 4
	p.NumChannels = 2
	p.Seed = seed
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// testConfig caps the search budget so the suite stays fast.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 1500
	return cfg
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testConfig(), solver.PortfolioOptions{Chains: -1}); err == nil {
		t.Error("negative chain count accepted")
	}
	if _, err := New(testConfig(), solver.PortfolioOptions{Workers: -2}); err == nil {
		t.Error("negative worker count accepted")
	}
	bad := testConfig()
	bad.CoolNormal = 2
	if _, err := New(bad, solver.PortfolioOptions{Chains: 2}); err == nil {
		t.Error("invalid TTSA config accepted")
	}
	if _, err := Wrap(nil, solver.PortfolioOptions{Chains: 2}); err == nil {
		t.Error("nil base scheduler accepted")
	}
	pf, err := New(testConfig(), solver.PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Chains() != 1 {
		t.Errorf("zero chains resolved to %d, want 1", pf.Chains())
	}
}

// TestSingleChainMatchesTTSA pins the seed-split contract: a 1-chain
// portfolio equals a plain TTSA solve on the chain-0 stream.
func TestSingleChainMatchesTTSA(t *testing.T) {
	sc := testScenario(t, 11)
	cfg := testConfig()
	pf, err := New(cfg, solver.PortfolioOptions{Chains: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pf.Schedule(sc, simrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ttsa, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ttsa.Schedule(sc, ChainStream(simrand.New(42), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Assignment.Equal(want.Assignment) {
		t.Error("1-chain portfolio diverged from the chain-0 TTSA solve")
	}
	if got.Utility != want.Utility {
		t.Errorf("utility %v != %v", got.Utility, want.Utility)
	}
	if got.Evaluations != want.Evaluations {
		t.Errorf("evaluations %d != %d", got.Evaluations, want.Evaluations)
	}
}

// TestDeterministicAcrossRepeats runs the same portfolio solve twice and
// demands bit-identical output.
func TestDeterministicAcrossRepeats(t *testing.T) {
	sc := testScenario(t, 5)
	pf, err := New(testConfig(), solver.PortfolioOptions{Chains: 6, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pf.Schedule(sc, simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := pf.Schedule(sc, simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Assignment.Equal(b.Assignment) || a.Utility != b.Utility || a.Evaluations != b.Evaluations {
		t.Errorf("repeat solve diverged: %v/%d vs %v/%d", a.Utility, a.Evaluations, b.Utility, b.Evaluations)
	}
}

// TestMoreChainsNeverWorse checks the portfolio's raison d'être: adding
// chains can only improve (or keep) the merged utility, because the
// reduction is a max over a superset of chains.
func TestMoreChainsNeverWorse(t *testing.T) {
	sc := testScenario(t, 21)
	prev := math.Inf(-1)
	for _, k := range []int{1, 2, 4, 8} {
		pf, err := New(testConfig(), solver.PortfolioOptions{Chains: k})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pf.Schedule(sc, simrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := solver.Verify(sc, res); err != nil {
			t.Fatal(err)
		}
		if res.Utility < prev {
			t.Errorf("K=%d utility %g worse than smaller portfolio %g", k, res.Utility, prev)
		}
		prev = res.Utility
	}
}

// TestMaskedServersNeverInMergedBest seeds every chain with masked servers
// and checks the merged best assignment never places a user on them.
func TestMaskedServersNeverInMergedBest(t *testing.T) {
	sc := testScenario(t, 33)
	initial, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	masked := []int{1, 3}
	for _, s := range masked {
		if _, err := initial.MaskServer(s); err != nil {
			t.Fatal(err)
		}
	}
	pf, err := New(testConfig(), solver.PortfolioOptions{Chains: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pf.SolveFrom(sc, simrand.New(77), initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(sc, res); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < sc.U(); u++ {
		s, _ := res.Assignment.SlotOf(u)
		for _, m := range masked {
			if s == m {
				t.Fatalf("user %d placed on masked server %d", u, m)
			}
		}
	}
	if res.Assignment.Offloaded() == 0 {
		t.Error("masked solve offloaded nobody; surviving servers unused")
	}
}
