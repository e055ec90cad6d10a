package dynamic

import (
	"testing"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/solver"
)

// FuzzDeltaEpoch drives the incremental epoch path over fuzzed
// (seed, threshold, cadence, participation, mode) tuples — mode bit 0
// warm-starts the full epochs, bit 1 solves them by a 3-chain portfolio —
// and asserts the structural invariants that must hold for every input:
//
//   - every epoch's assignment is valid (Run calls solver.Verify and
//     errors out otherwise),
//   - a repair epoch's utility never falls below the incumbent it
//     started from,
//   - the refreshed-row count never exceeds the active-user count and
//     repair evaluations never exceed the documented budget,
//   - the whole run replays bit-identically from the same inputs.
func FuzzDeltaEpoch(f *testing.F) {
	f.Add(uint64(1), uint16(20), uint8(3), uint8(80), uint8(0))
	f.Add(uint64(7), uint16(0), uint8(1), uint8(60), uint8(1))
	f.Add(uint64(42), uint16(500), uint8(8), uint8(95), uint8(2))
	f.Add(uint64(303), uint16(35), uint8(5), uint8(70), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, thresholdM uint16, fullEvery uint8, activePct uint8, mode uint8) {
		p := scenario.DefaultParams()
		p.NumUsers = 8
		p.NumServers = 3
		p.NumChannels = 2
		ttsaCfg := core.DefaultConfig()
		ttsaCfg.MaxEvaluations = 600
		dcfg := delta.Config{
			MoveThresholdKm:    float64(thresholdM) / 1000, // metres → km
			FullEvery:          int(fullEvery)%10 + 1,
			RepairEvalsPerUser: 100,
			RepairMinEvals:     150,
		}
		cfg := Config{
			Params:       p,
			Epochs:       6,
			EpochSeconds: 30,
			ActiveProb:   0.4 + float64(activePct%60)/100,
			TTSAConfig:   &ttsaCfg,
			Seed:         seed,
			Delta:        &dcfg,
			WarmStart:    mode&1 != 0,
		}
		if mode&2 != 0 {
			cfg.Portfolio = &solver.PortfolioOptions{Chains: 3}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := dcfg.WithDefaults()
		for _, e := range res.Epochs {
			if e.Active == 0 || e.CoordinatorDown {
				continue
			}
			if e.DeltaDirty > e.Active {
				t.Errorf("epoch %d refreshed %d rows for %d active users", e.Epoch, e.DeltaDirty, e.Active)
			}
			if e.DeltaFull {
				if e.DeltaReason == "" {
					t.Errorf("full epoch %d has no reason", e.Epoch)
				}
				continue
			}
			if e.Utility < e.DeltaIncumbent {
				t.Errorf("repair epoch %d utility %.9f below incumbent %.9f", e.Epoch, e.Utility, e.DeltaIncumbent)
			}
			if budget := d.RepairBudget(e.DeltaDirty, ttsaCfg.MaxEvaluations); e.Evaluations > budget {
				t.Errorf("repair epoch %d spent %d evaluations, budget %d", e.Epoch, e.Evaluations, budget)
			}
		}

		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Epochs {
			a, b := res.Epochs[i], again.Epochs[i]
			if a.Utility != b.Utility || a.Evaluations != b.Evaluations ||
				a.DeltaDirty != b.DeltaDirty || a.DeltaFull != b.DeltaFull {
				t.Fatalf("epoch %d not deterministic: %+v vs %+v", i, a, b)
			}
		}
	})
}
