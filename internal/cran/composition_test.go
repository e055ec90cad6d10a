package cran

import (
	"fmt"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/solver"
)

// serveRounds serves goldenRounds rounds of deltaDiffRequests on a fresh
// coordinator and returns the decisions keyed "r{round}/{user}" plus the
// final stats.
func serveRounds(t *testing.T, cfg ServerConfig, protocol string) (map[string]deltaDecision, Stats) {
	t.Helper()
	srv := startServer(t, cfg)
	out := make(map[string]deltaDecision)
	for r := 1; r <= goldenRounds; r++ {
		for user, d := range runDeltaRound(t, srv, protocol, deltaDiffRequests(r)) {
			out[fmt.Sprintf("r%d/%s", r, user)] = d
		}
	}
	return out, srv.Stats()
}

func memberSlots(st Stats) uint64 {
	var n uint64
	for _, v := range st.PortfolioMemberSlots {
		n += v
	}
	return n
}

// TestServingComposition checks that the serving features compose: every
// epoch runs through one chain and one solve path, so a feature pair
// behaves as each feature does alone.
func TestServingComposition(t *testing.T) {
	// Threshold-0 delta full-solves every epoch, through the portfolio when
	// one is configured: the plain portfolio coordinator's decisions.
	t.Run("delta0_portfolio", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			plain := goldenServerConfig(workers)
			plain.Portfolio = &solver.PortfolioOptions{Chains: 3}
			withDelta := plain
			withDelta.Delta = deltaAt(0)
			want, wantStats := serveRounds(t, plain, ProtoBinary)
			got, gotStats := serveRounds(t, withDelta, ProtoBinary)
			diffDeltaMaps(t, got, want)
			if gotStats.DeltaFullEpochs != goldenRounds || memberSlots(gotStats) != memberSlots(wantStats) {
				t.Errorf("workers=%d: %d full epochs, %d member slots; want %d, %d",
					workers, gotStats.DeltaFullEpochs, memberSlots(gotStats), goldenRounds, memberSlots(wantStats))
			}
		}
	})

	// An idle brownout controller never degrades, so it changes nothing.
	t.Run("delta_brownout_idle", func(t *testing.T) {
		cfg := goldenServerConfig(4)
		cfg.Delta = deltaAt(deltaDiffThreshold)
		want, wantStats := serveRounds(t, cfg, ProtoJSON)
		cfg.Brownout = BrownoutConfig{Enabled: true}
		got, gotStats := serveRounds(t, cfg, ProtoJSON)
		diffDeltaMaps(t, got, want)
		if gotStats.DeltaFullEpochs != wantStats.DeltaFullEpochs ||
			gotStats.DeltaRepairEpochs != wantStats.DeltaRepairEpochs ||
			gotStats.DeltaRowsReused != wantStats.DeltaRowsReused {
			t.Errorf("delta counters moved under idle brownout: %+v vs %+v", gotStats, wantStats)
		}
	})

	// The adaptive selector plans full epochs only: repairs are recorded
	// as skipped, so the slots cover exactly the full epochs.
	t.Run("delta_portfolio_adaptive", func(t *testing.T) {
		const chains = 3
		cfg := goldenServerConfig(4)
		cfg.Delta = deltaAt(deltaDiffThreshold)
		cfg.Portfolio = &solver.PortfolioOptions{Chains: chains, Adaptive: true}
		a, aStats := serveRounds(t, cfg, ProtoBinary)
		b, _ := serveRounds(t, cfg, ProtoBinary)
		diffDeltaMaps(t, b, a)
		if aStats.DeltaRepairEpochs == 0 {
			t.Fatalf("no repair epochs: %+v", aStats)
		}
		if got, want := memberSlots(aStats), chains*aStats.DeltaFullEpochs; got != want {
			t.Errorf("member slots = %d, want %d (chains %d x %d full epochs)", got, want, chains, aStats.DeltaFullEpochs)
		}
	})

	// Under real queue pressure a delta chain keeps answering: degraded
	// epochs are full solves, and every epoch is classified exactly once.
	t.Run("delta_brownout_pressure", func(t *testing.T) {
		cfg := testServerConfig()
		cfg.BatchWindow = time.Hour
		cfg.MaxBatch = 2
		cfg.Workers = 1
		cfg.QueueDepth = 4
		cfg.Brownout = BrownoutConfig{
			Enabled:       true,
			HighFraction:  0.5,
			CheapFraction: 0.75,
			LowFraction:   0.25,
			DwellEpochs:   1,
		}
		cfg.SolverChaos = &faults.SolverChaos{Seed: 3, DelayProb: 1, Delay: 40 * time.Millisecond}
		cfg.Delta = deltaAt(deltaDiffThreshold)
		srv := startServer(t, cfg)
		var ps []pending
		for wave := 0; wave < 5; wave++ {
			ps = append(ps, submitWaveAsync(t, srv, waveRequests(wave, 2))...)
		}
		for i, r := range collectWave(t, ps) {
			if r.Error != "" {
				t.Fatalf("request %d failed: %s (code %q)", i, r.Error, r.Code)
			}
		}
		st := srv.Stats()
		degraded := st.EpochsDegradedTruncated + st.EpochsDegradedCheap
		if degraded == 0 {
			t.Fatal("pressure never degraded an epoch")
		}
		if st.DeltaFullEpochs+st.DeltaRepairEpochs != st.Epochs || st.DeltaFullEpochs < degraded {
			t.Errorf("%d full + %d repair epochs of %d, %d degraded", st.DeltaFullEpochs, st.DeltaRepairEpochs, st.Epochs, degraded)
		}
	})

	// A degraded epoch on a delta chain is a full solve by its tier that
	// the chain does not carry: the next epoch full-solves (reason reset)
	// and the one after repairs again.
	t.Run("delta_cheap_tier", func(t *testing.T) {
		cfg := goldenServerConfig(1)
		cfg.Delta = &delta.Config{MoveThresholdKm: deltaDiffThreshold, FullEvery: 100}
		cfg.Brownout = BrownoutConfig{Enabled: true}
		srv := startServer(t, cfg)
		w := srv.newSolveWorker()
		ch := srv.chains[0]
		reqs := deltaDiffRequests(1)
		for i := range reqs {
			reqs[i].Version = ProtocolVersion
			srv.applyDefaults(&reqs[i])
		}
		for _, step := range []struct {
			tier       epochTier
			full, rep  uint64
			wantTier   string
			wantCheaps uint64
		}{
			{tierFull, 1, 0, "", 0},         // cadence
			{tierFull, 1, 1, "", 0},         // nobody moved: repair
			{tierCheap, 2, 1, TierCheap, 1}, // degraded: full by the cheap tier
			{tierFull, 3, 1, "", 1},         // incumbent dropped: full
			{tierFull, 3, 2, "", 1},         // carried again: repair
		} {
			ps := make([]pending, len(reqs))
			for i := range reqs {
				ps[i] = pending{req: reqs[i], sink: make(chanSink, 1)}
			}
			eb := epochBatch{batch: ps, tier: step.tier}
			ch.stamp(&eb)
			w.solveEpoch(eb)
			for i := range ps {
				resp := <-ps[i].sink.(chanSink)
				if resp.Error != "" || resp.Tier != step.wantTier {
					t.Fatalf("epoch %d: response %+v, want tier %q", eb.epoch, resp, step.wantTier)
				}
			}
			st := srv.Stats()
			if st.DeltaFullEpochs != step.full || st.DeltaRepairEpochs != step.rep ||
				st.EpochsDegradedCheap != step.wantCheaps {
				t.Fatalf("after epoch %d: %d full / %d repair / %d cheap, want %d/%d/%d", eb.epoch,
					st.DeltaFullEpochs, st.DeltaRepairEpochs, st.EpochsDegradedCheap, step.full, step.rep, step.wantCheaps)
			}
		}
	})
}
