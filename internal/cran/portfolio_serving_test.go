package cran

import (
	"reflect"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/solver"
)

// TestFixedHeterogeneousServingDifferential: the reproducibility default —
// a fixed-weights heterogeneous portfolio — must keep the serving path
// bit-identical across worker counts, exactly like the plain-TTSA
// differential (TestDifferentialWorkerCounts).
func TestFixedHeterogeneousServingDifferential(t *testing.T) {
	const (
		waves    = 4
		waveSize = 4
	)
	run := func(workers int) [][]OffloadResponse {
		cfg := testServerConfig()
		cfg.BatchWindow = time.Hour
		cfg.MaxBatch = waveSize
		cfg.Workers = workers
		cfg.QueueDepth = waves + 1
		cfg.Portfolio = &solver.PortfolioOptions{
			Chains:  3,
			Members: []string{"ttsa", "cheap", "attract"},
		}
		srv := startServer(t, cfg)
		pss := make([][]pending, waves)
		for w := 0; w < waves; w++ {
			pss[w] = submitWaveAsync(t, srv, waveRequests(w, waveSize))
		}
		out := make([][]OffloadResponse, waves)
		for w := 0; w < waves; w++ {
			out[w] = collectWave(t, pss[w])
		}
		return out
	}
	seq := run(1)
	par := run(4)
	for w := 0; w < waves; w++ {
		for i := range seq[w] {
			if seq[w][i].Error != "" {
				t.Fatalf("workers=1 wave %d user %d failed: %s", w, i, seq[w][i].Error)
			}
			if !reflect.DeepEqual(seq[w][i], par[w][i]) {
				t.Errorf("wave %d user %d diverged across worker counts:\n  workers=1: %+v\n  workers=4: %+v",
					w, i, seq[w][i], par[w][i])
			}
		}
	}
}

// TestAdaptiveServingDeterministicAcrossRuns: with a fixed coordinator
// config the adaptive serving path is reproducible — two identical runs
// produce bit-identical responses and identical member telemetry, because
// the selector plans from seed-derived streams and the committed epoch
// prefix only.
func TestAdaptiveServingDeterministicAcrossRuns(t *testing.T) {
	const (
		waves    = 6
		waveSize = 3
		chains   = 3
	)
	run := func() ([][]OffloadResponse, Stats) {
		cfg := testServerConfig()
		cfg.BatchWindow = time.Hour
		cfg.MaxBatch = waveSize
		cfg.Workers = 1
		cfg.Portfolio = &solver.PortfolioOptions{Chains: chains, Adaptive: true}
		srv := startServer(t, cfg)
		out := make([][]OffloadResponse, waves)
		for w := 0; w < waves; w++ {
			// Collect each wave before submitting the next so epoch
			// composition is deterministic.
			out[w] = submitWave(t, srv, waveRequests(w, waveSize))
		}
		return out, srv.Stats()
	}
	resA, statsA := run()
	resB, statsB := run()
	for w := range resA {
		for i := range resA[w] {
			if resA[w][i].Error != "" {
				t.Fatalf("wave %d user %d failed: %s", w, i, resA[w][i].Error)
			}
			if !reflect.DeepEqual(resA[w][i], resB[w][i]) {
				t.Errorf("wave %d user %d diverged across identical runs:\n  run A: %+v\n  run B: %+v",
					w, i, resA[w][i], resB[w][i])
			}
		}
	}
	if !reflect.DeepEqual(statsA.PortfolioMemberSlots, statsB.PortfolioMemberSlots) ||
		!reflect.DeepEqual(statsA.PortfolioMemberWins, statsB.PortfolioMemberWins) {
		t.Errorf("member telemetry diverged across identical runs:\n  run A: slots=%v wins=%v\n  run B: slots=%v wins=%v",
			statsA.PortfolioMemberSlots, statsA.PortfolioMemberWins,
			statsB.PortfolioMemberSlots, statsB.PortfolioMemberWins)
	}
	var slots, wins uint64
	for _, v := range statsA.PortfolioMemberSlots {
		slots += v
	}
	for _, v := range statsA.PortfolioMemberWins {
		wins += v
	}
	if slots != chains*waves {
		t.Errorf("member slots cover %d epochs' worth, want %d (chains %d x epochs %d)",
			slots, chains*waves, chains, waves)
	}
	if wins != waves {
		t.Errorf("member wins = %d, want one per epoch = %d", wins, waves)
	}
}

// TestAdaptiveBrownoutPinning is the selector/brownout interop regression:
// when the degradation ladder engages, degraded epochs keep the ladder's
// truncated/cheap solvers — the selector must skip them, not fight them —
// so the member telemetry covers exactly the full-tier epochs.
func TestAdaptiveBrownoutPinning(t *testing.T) {
	const chains = 2
	cfg := testServerConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 2
	cfg.Workers = 1
	cfg.QueueDepth = 4 // truncated tier from depth 2, cheap at 4
	cfg.Brownout = BrownoutConfig{Enabled: true}
	cfg.SolverChaos = &faults.SolverChaos{Seed: 3, DelayProb: 1, Delay: 40 * time.Millisecond}
	cfg.Portfolio = &solver.PortfolioOptions{Chains: chains, Adaptive: true}
	srv := startServer(t, cfg)

	var ps []pending
	for wave := 0; wave < 5; wave++ {
		ps = append(ps, submitWaveAsync(t, srv, waveRequests(wave, 2))...)
	}
	resps := collectWave(t, ps)
	counts := map[string]int{}
	for i, r := range resps {
		if r.Error != "" {
			t.Fatalf("request %d shed under brownout: %s (code %q)", i, r.Error, r.Code)
		}
		counts[r.Tier]++
	}
	if counts[TierTruncated]+counts[TierCheap] == 0 {
		t.Fatalf("no degraded-tier responses under sustained pressure: %v", counts)
	}
	if counts[""] == 0 {
		t.Fatalf("no full-tier responses; the portfolio never ran: %v", counts)
	}

	stats := srv.Stats()
	degraded := stats.EpochsDegradedTruncated + stats.EpochsDegradedCheap
	if degraded == 0 {
		t.Fatal("stats report no degraded epochs")
	}
	full := stats.Epochs - degraded
	var slots, wins uint64
	for _, v := range stats.PortfolioMemberSlots {
		slots += v
	}
	for _, v := range stats.PortfolioMemberWins {
		wins += v
	}
	// The pinning contract: degraded epochs contribute zero member slots.
	// Only the full-tier epochs ran the portfolio.
	if slots != chains*full {
		t.Errorf("member slots = %d, want %d (chains %d x %d full-tier epochs); degraded epochs leaked into the portfolio",
			slots, chains*full, chains, full)
	}
	if wins != full {
		t.Errorf("member wins = %d, want one per full-tier epoch = %d", wins, full)
	}
}
