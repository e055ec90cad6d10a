package dynamic

import (
	"testing"

	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// deltaTestConfig is testConfig sized for the delta suite: more epochs
// (so cadence fallbacks and repairs both occur) and a denser active set.
func deltaTestConfig(dcfg delta.Config) Config {
	cfg := testConfig()
	cfg.Epochs = 12
	// Dense participation: users idle in the previous epoch are forced
	// dirty (their incumbent slot is Local), so a sparse active set would
	// trip the dirty-frac gate every epoch and the suite would never see
	// a repair.
	cfg.ActiveProb = 0.9
	cfg.Delta = &dcfg
	return cfg
}

// deltaReference returns the differential reference run for the given
// config: the same run with MoveThresholdKm = 0, which marks every
// active user dirty and therefore full-solves every epoch.
func deltaReference(t *testing.T, cfg Config) *Result {
	t.Helper()
	ref := cfg
	d := *cfg.Delta
	d.MoveThresholdKm = 0
	ref.Delta = &d
	res, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs {
		if e.Active > 0 && !e.CoordinatorDown && !e.DeltaFull {
			t.Fatalf("threshold-0 reference ran a repair at epoch %d", e.Epoch)
		}
	}
	return res
}

func TestDeltaConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "negative threshold", mutate: func(c *Config) { c.Delta.MoveThresholdKm = -1 }},
		{name: "negative cadence", mutate: func(c *Config) { c.Delta.FullEvery = -2 }},
		{name: "negative repair temp", mutate: func(c *Config) { c.Delta.RepairTemp = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := deltaTestConfig(delta.Config{MoveThresholdKm: 0.02})
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestDeltaFullEpochsHistoryFree is the sharpest form of the differential
// gate: three runs that full-solve every epoch for entirely different
// reasons — threshold 0 trips the all-dirty gate, FullEvery 1 trips the
// cadence gate under an unreachable threshold, and a plain run (no Delta)
// is full by construction — must be bit-identical, with and without
// faults, because a full epoch is a pure function of (seed, epoch,
// trajectory). Full epochs solve as plain ones do, so the identity holds
// for a portfolio (Portfolio) and for warm-started runs too.
func TestDeltaFullEpochsHistoryFree(t *testing.T) {
	base := deltaTestConfig(delta.Config{})
	plan, err := faults.Generate(faults.Config{
		ServerFailProb: 0.2,
		CoordFailProb:  0.15,
	}, base.Params.NumServers, base.Epochs, simrand.New(303))
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name   string
		mutate func(*Config)
	}{
		{"single", func(*Config) {}},
		{"chains", func(c *Config) { c.Portfolio = &solver.PortfolioOptions{Chains: 3} }},
		{"warm", func(c *Config) { c.WarmStart = true }},
	}
	for _, in := range inputs {
		for _, fp := range []*faults.Plan{nil, plan} {
			run := func(d *delta.Config) *Result {
				cfg := deltaTestConfig(delta.Config{})
				in.mutate(&cfg)
				cfg.Delta, cfg.FaultPlan = d, fp
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a := run(&delta.Config{MoveThresholdKm: 0, FullEvery: 5})
			b := run(&delta.Config{MoveThresholdKm: 1e9, FullEvery: 1})
			plain := run(nil)
			for i := range a.Epochs {
				ea, eb, ep := a.Epochs[i], b.Epochs[i], plain.Epochs[i]
				if ea.Utility != eb.Utility || ea.Offloaded != eb.Offloaded || ea.Evaluations != eb.Evaluations {
					t.Fatalf("%s faults=%v epoch %d diverged: all-dirty %+v vs cadence %+v", in.name, fp != nil, i, ea, eb)
				}
				if ea.Utility != ep.Utility || ea.Offloaded != ep.Offloaded || ea.Evaluations != ep.Evaluations {
					t.Fatalf("%s faults=%v epoch %d diverged: all-dirty %+v vs plain %+v", in.name, fp != nil, i, ea, ep)
				}
			}
		}
	}
}

// TestDeltaDifferentialAgainstFullSolve is the headline gate: a repair
// run's full-fallback epochs are bit-identical to the same epochs of the
// threshold-0 reference, its repair epochs never fall below their own
// incumbent, spend at most the documented budget, and stay within the
// documented utility tolerance of the reference's full solves.
func TestDeltaDifferentialAgainstFullSolve(t *testing.T) {
	cfg := deltaTestConfig(delta.Config{MoveThresholdKm: 0.035, FullEvery: 8})
	ref := deltaReference(t, cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dcfg := cfg.Delta.WithDefaults()
	fullBudget := cfg.TTSAConfig.MaxEvaluations
	repairs, fulls := 0, 0
	ratioSum := 0.0
	for i, e := range res.Epochs {
		if e.Active == 0 {
			continue
		}
		re := ref.Epochs[i]
		if e.DeltaFull {
			fulls++
			if e.Utility != re.Utility || e.Offloaded != re.Offloaded {
				t.Errorf("full epoch %d (reason %q) not bit-identical to reference: %.9f vs %.9f",
					i, e.DeltaReason, e.Utility, re.Utility)
			}
			continue
		}
		repairs++
		if e.DeltaReason != "" {
			t.Errorf("repair epoch %d carries reason %q", i, e.DeltaReason)
		}
		if e.Utility < e.DeltaIncumbent {
			t.Errorf("repair epoch %d fell below its incumbent: %.9f < %.9f", i, e.Utility, e.DeltaIncumbent)
		}
		if budget := dcfg.RepairBudget(e.DeltaDirty, fullBudget); e.Evaluations > budget {
			t.Errorf("repair epoch %d spent %d evaluations, budget %d", i, e.Evaluations, budget)
		}
		if e.DeltaDirty >= e.Active {
			t.Errorf("repair epoch %d refreshed %d of %d rows — should have been a full epoch", i, e.DeltaDirty, e.Active)
		}
		// Documented tolerance: a repair epoch achieves at least 65% of
		// the full solve's utility (stale rows + scoped search), and the
		// run-level mean stays above 90%.
		if re.Utility > 0 {
			ratio := e.Utility / re.Utility
			ratioSum += ratio
			if ratio < 0.65 {
				t.Errorf("repair epoch %d utility %.4f below tolerance vs full %.4f (ratio %.3f)",
					i, e.Utility, re.Utility, ratio)
			}
		}
	}
	if fulls == 0 || repairs == 0 {
		t.Fatalf("degenerate split: %d full, %d repair epochs", fulls, repairs)
	}
	if mean := ratioSum / float64(repairs); mean < 0.90 {
		t.Errorf("mean repair/full utility ratio %.3f below 0.90", mean)
	}
	if res.DeltaFullEpochs != fulls || res.DeltaRepairEpochs != repairs {
		t.Errorf("summary says %d/%d full/repair, epochs say %d/%d",
			res.DeltaFullEpochs, res.DeltaRepairEpochs, fulls, repairs)
	}
	if res.TotalEvaluations >= ref.TotalEvaluations {
		t.Errorf("delta run spent %d evaluations, reference %d — no work saved",
			res.TotalEvaluations, ref.TotalEvaluations)
	}
}

// TestDeltaThresholdMonotonicity is the metamorphic suite: with the
// drift gate off and no faults, raising the movement threshold never
// increases per-epoch solve work — the refreshed-row count is pointwise
// non-increasing, and any epoch that full-solves under a high threshold
// also full-solves under every lower one.
func TestDeltaThresholdMonotonicity(t *testing.T) {
	thresholds := []float64{0, 0.005, 0.015, 0.03, 1e9}
	runs := make([]*Result, len(thresholds))
	for i, th := range thresholds {
		res, err := Run(deltaTestConfig(delta.Config{MoveThresholdKm: th, FullEvery: 6}))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	for i := 1; i < len(runs); i++ {
		lo, hi := runs[i-1], runs[i]
		for e := range hi.Epochs {
			if hi.Epochs[e].Active == 0 {
				continue
			}
			if hi.Epochs[e].DeltaDirty > lo.Epochs[e].DeltaDirty {
				t.Errorf("epoch %d: threshold %g refreshed %d rows, lower threshold %g only %d",
					e, thresholds[i], hi.Epochs[e].DeltaDirty, thresholds[i-1], lo.Epochs[e].DeltaDirty)
			}
			if hi.Epochs[e].DeltaFull && !lo.Epochs[e].DeltaFull {
				t.Errorf("epoch %d full at threshold %g but repaired at lower threshold %g",
					e, thresholds[i], thresholds[i-1])
			}
		}
		if hi.DeltaDirtyUsers > lo.DeltaDirtyUsers {
			t.Errorf("threshold %g refreshed %d total rows, lower threshold %g only %d",
				thresholds[i], hi.DeltaDirtyUsers, thresholds[i-1], lo.DeltaDirtyUsers)
		}
	}
	// The extremes must actually differ, or the suite proves nothing.
	if runs[0].DeltaRepairEpochs != 0 {
		t.Error("threshold 0 ran repairs")
	}
	if last := runs[len(runs)-1]; last.DeltaRepairEpochs == 0 {
		t.Error("unreachable threshold never repaired")
	}
}

// TestDeltaFaultsForceFullSolves exercises the forced-dirty and reset
// machinery: failed servers evacuate their incumbent occupants into the
// dirty set, and a coordinator outage (incumbent lost) forces the next
// solved epoch to a full solve with reason "reset".
func TestDeltaFaultsForceFullSolves(t *testing.T) {
	cfg := deltaTestConfig(delta.Config{MoveThresholdKm: 0.05, FullEvery: 20})
	cfg.Epochs = 14
	plan, err := faults.Generate(faults.Config{
		ServerFailProb: 0.2,
		CoordFailProb:  0.15,
	}, cfg.Params.NumServers, cfg.Epochs, simrand.New(303))
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = plan
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawOutage := false
	wantReset := false
	for _, e := range res.Epochs {
		if e.CoordinatorDown {
			sawOutage = true
			wantReset = true
			continue
		}
		if e.Active == 0 {
			continue
		}
		if wantReset {
			if !e.DeltaFull || e.DeltaReason != delta.ReasonReset {
				t.Errorf("epoch %d after outage: full=%v reason=%q, want reset", e.Epoch, e.DeltaFull, e.DeltaReason)
			}
			wantReset = false
		}
	}
	if !sawOutage {
		t.Skip("fault plan drew no coordinator outage; adjust seed")
	}

	// Determinism with faults: the whole delta machinery replays exactly.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Epochs {
		if res.Epochs[i].Utility != again.Epochs[i].Utility ||
			res.Epochs[i].DeltaDirty != again.Epochs[i].DeltaDirty {
			t.Fatalf("epoch %d not deterministic under faults", i)
		}
	}
}

func TestDeltaDeterministic(t *testing.T) {
	cfg := deltaTestConfig(delta.Config{MoveThresholdKm: 0.02})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalUtility != b.TotalUtility || a.TotalEvaluations != b.TotalEvaluations ||
		a.DeltaDirtyUsers != b.DeltaDirtyUsers {
		t.Error("identical seeds produced different delta runs")
	}
}
