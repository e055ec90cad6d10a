package cran

import (
	"fmt"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/simrand"
)

// BenchmarkServeEpoch measures one solver worker's epoch turnaround on its
// reusable scratch — scenario assembly, gain synthesis, the TTSA solve, KKT
// evaluation, and the per-request replies — bypassing TCP and the queue.
// Iterations are bit-identical (fixed epoch label, fixed batch), so the
// reported allocs/op is the steady-state allocation count of the epoch fast
// path and the utility metric is deterministic: both are gated by
// `make bench-check` against the committed baseline.
func BenchmarkServeEpoch(b *testing.B) {
	cfg := testServerConfig()
	cfg.BatchWindow = time.Hour // never flushes; the collector stays idle
	cfg.Workers = 1
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	const users = 8
	reqs := waveRequests(0, users)
	ps := make([]pending, users)
	for i := range reqs {
		reqs[i].Version = ProtocolVersion
		srv.applyDefaults(&reqs[i])
		if err := reqs[i].Validate(); err != nil {
			b.Fatal(err)
		}
		ps[i] = pending{req: reqs[i], sink: make(chanSink, 1)}
	}
	w := srv.newSolveWorker()
	// The network-wide chain: the epoch solves the whole network.
	ch := srv.chains[0]
	eb := epochBatch{
		ch:        ch,
		epoch:     1,
		batch:     ps,
		collected: time.Now(),
	}

	var utility float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-derive the same streams each iteration so every epoch solve is
		// bit-identical; the derivation cost is part of the serving path.
		eb.solveRNG = ch.base.Derive(eb.epoch)
		eb.gainKey = simrand.Key(ch.base.Seed(), eb.epoch^gainStreamLabel)
		w.solveEpoch(eb)
		for j := range ps {
			resp := <-ps[j].sink.(chanSink)
			if resp.Error != "" {
				b.Fatalf("epoch failed: %s", resp.Error)
			}
			// Re-arm the reused slot: reply() answers each pending at most
			// once, so the next iteration needs the flag cleared.
			ps[j].answered = 0
			utility += resp.Utility
		}
	}
	b.StopTimer()
	b.ReportMetric(utility/float64(b.N), "utility")
}

// BenchmarkServeEpochDegraded measures the brownout tiers' epoch turnaround
// on the same fixed batch as BenchmarkServeEpoch: the truncated anneal and
// the cheap deterministic solver. These are the solves the coordinator falls
// back to under queue pressure, so their cost — and the utility they give
// up relative to the full tier — is pinned by the quick bench gate.
func BenchmarkServeEpochDegraded(b *testing.B) {
	for _, tier := range []epochTier{tierTruncated, tierCheap} {
		b.Run("tier="+tier.wire(), func(b *testing.B) {
			cfg := testServerConfig()
			cfg.BatchWindow = time.Hour
			cfg.Workers = 1
			cfg.Brownout = BrownoutConfig{Enabled: true}
			srv, err := NewServer("127.0.0.1:0", cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			const users = 8
			reqs := waveRequests(0, users)
			ps := make([]pending, users)
			for i := range reqs {
				reqs[i].Version = ProtocolVersion
				srv.applyDefaults(&reqs[i])
				if err := reqs[i].Validate(); err != nil {
					b.Fatal(err)
				}
				ps[i] = pending{req: reqs[i], sink: make(chanSink, 1)}
			}
			w := srv.newSolveWorker()
			ch := srv.chains[0]
			eb := epochBatch{
				ch:        ch,
				epoch:     1,
				batch:     ps,
				collected: time.Now(),
				tier:      tier,
			}

			var utility float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eb.solveRNG = ch.base.Derive(eb.epoch)
				eb.gainKey = simrand.Key(ch.base.Seed(), eb.epoch^gainStreamLabel)
				w.solveEpoch(eb)
				for j := range ps {
					resp := <-ps[j].sink.(chanSink)
					if resp.Error != "" {
						b.Fatalf("epoch failed: %s", resp.Error)
					}
					if resp.Tier != tier.wire() {
						b.Fatalf("response tier = %q, want %q", resp.Tier, tier.wire())
					}
					ps[j].answered = 0
					utility += resp.Utility
				}
			}
			b.StopTimer()
			b.ReportMetric(utility/float64(b.N), "utility")
		})
	}
}

// BenchmarkServePipeline measures end-to-end coordinator throughput with the
// solve queue in play: waves are injected ahead of the solvers (up to the
// queue depth), so batch collection, response delivery, and solving overlap.
// The epochs/s metric is the pipelined serving rate; it is recorded by
// `make bench` but deliberately kept out of the quick gate (timing metrics
// are too noisy for fixed-iteration comparisons).
func BenchmarkServePipeline(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := testServerConfig()
			cfg.BatchWindow = time.Hour
			cfg.MaxBatch = 8
			cfg.Workers = workers
			cfg.QueueDepth = 12
			srv, err := NewServer("127.0.0.1:0", cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			b.ResetTimer()
			start := time.Now()
			// Collector goroutine drains replies while the main goroutine
			// keeps the solve queue fed. The waves channel caps the number
			// of epochs in flight below the solve-queue depth, so no epoch
			// ever hits the fail-fast overflow; on an unexpected failure the
			// collector keeps draining so the submitter cannot block.
			waves := make(chan []pending, 6)
			done := make(chan error, 1)
			go func() {
				var firstErr error
				for ps := range waves {
					for _, p := range ps {
						if resp := <-p.sink.(chanSink); resp.Error != "" && firstErr == nil {
							firstErr = fmt.Errorf("epoch failed: %s", resp.Error)
						}
					}
				}
				done <- firstErr
			}()
			for i := 0; i < b.N; i++ {
				waves <- submitWaveAsync(b, srv, waveRequests(i%16, 8))
			}
			close(waves)
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "epochs/s")
		})
	}
}
