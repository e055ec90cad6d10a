package solver

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/tsajs/tsajs/internal/alloc"
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
)

func buildScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = 12
	p.NumServers = 3
	p.NumChannels = 2
	p.Seed = 5
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestRandomFeasibleProperty(t *testing.T) {
	sc := buildScenario(t)
	prop := func(seed uint64, probRaw uint8) bool {
		prob := float64(probRaw) / 255
		a, err := RandomFeasible(sc, simrand.New(seed), prob)
		if err != nil {
			return false
		}
		return a.Validate() == nil &&
			a.Users() == sc.U() && a.Servers() == sc.S() && a.Channels() == sc.N()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomFeasibleExtremes(t *testing.T) {
	sc := buildScenario(t)
	a, err := RandomFeasible(sc, simrand.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offloaded() != 0 {
		t.Errorf("prob 0 offloaded %d users", a.Offloaded())
	}
	a, err = RandomFeasible(sc, simrand.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 12 users, 6 slots: probability 1 must fill the network.
	if a.Offloaded() != sc.S()*sc.N() {
		t.Errorf("prob 1 offloaded %d users, want %d (full network)", a.Offloaded(), sc.S()*sc.N())
	}
}

func TestFinishConsistency(t *testing.T) {
	sc := buildScenario(t)
	e := objective.New(sc)
	a, err := RandomFeasible(sc, simrand.New(2), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	res := Finish("Test", e, a, 42, started)
	if res.Scheme != "Test" || res.Evaluations != 42 {
		t.Errorf("metadata lost: %+v", res)
	}
	if res.Utility != e.SystemUtility(a) {
		t.Error("utility not recomputed from assignment")
	}
	if res.Elapsed < 0 {
		t.Error("negative elapsed time")
	}
	if err := Verify(sc, res); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejects(t *testing.T) {
	sc := buildScenario(t)
	e := objective.New(sc)
	good, err := RandomFeasible(sc, simrand.New(3), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res := Finish("Test", e, good, 1, time.Now())

	t.Run("nil assignment", func(t *testing.T) {
		bad := res
		bad.Assignment = nil
		if err := Verify(sc, bad); err == nil {
			t.Error("nil assignment accepted")
		}
	})
	t.Run("wrong dimensions", func(t *testing.T) {
		bad := res
		var err error
		bad.Assignment, err = assign.New(sc.U()+1, sc.S(), sc.N())
		if err != nil {
			t.Fatal(err)
		}
		bad.Allocation = alloc.Allocation{FUs: make([]float64, sc.U()+1)}
		if err := Verify(sc, bad); err == nil {
			t.Error("dimension mismatch accepted")
		}
	})
	t.Run("infeasible allocation", func(t *testing.T) {
		bad := res
		fus := append([]float64(nil), res.Allocation.FUs...)
		for u := range fus {
			fus[u] *= 10 // blow the capacity
		}
		bad.Allocation = alloc.Allocation{FUs: fus}
		if bad.Assignment.Offloaded() == 0 {
			t.Skip("no offloaded users in this draw")
		}
		if err := Verify(sc, bad); err == nil {
			t.Error("over-capacity allocation accepted")
		}
	})
}

// TestPortfolioOptionsValidate covers the one rule set every portfolio
// consumer checks: non-negative counts, and more than one chain for the
// adaptive selector or a member roster.
func TestPortfolioOptionsValidate(t *testing.T) {
	for _, ok := range []PortfolioOptions{
		{},
		{Chains: 1},
		{Chains: 4, Workers: 2},
		{Chains: 2, Adaptive: true},
		{Chains: 3, Members: []string{"ttsa", "cheap"}, Adaptive: true},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	for _, bad := range []PortfolioOptions{
		{Chains: -1},
		{Chains: 2, Workers: -1},
		{Adaptive: true},
		{Chains: 1, Adaptive: true},
		{Members: []string{"ttsa"}},
		{Chains: 1, Members: []string{"ttsa", "cheap"}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}
