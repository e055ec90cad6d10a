package cran

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/faults"
)

// submitWave injects requests directly into the batch collector in a fixed
// order — below the TCP layer, so batch composition and ordering are fully
// deterministic — and returns the responses in submission order.
func submitWave(t testing.TB, srv *Server, reqs []OffloadRequest) []OffloadResponse {
	t.Helper()
	ps := submitWaveAsync(t, srv, reqs)
	return collectWave(t, ps)
}

func submitWaveAsync(t testing.TB, srv *Server, reqs []OffloadRequest) []pending {
	t.Helper()
	ps := make([]pending, len(reqs))
	for i := range reqs {
		req := reqs[i]
		req.Version = ProtocolVersion // the client stamps this on the wire
		srv.applyDefaults(&req)
		if err := req.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		ps[i] = pending{req: req, sink: make(chanSink, 1), arrived: time.Now()}
		if budget := srv.deadlineBudget(req); budget > 0 {
			ps[i].deadline = ps[i].arrived.Add(budget)
		}
		srv.stats.requestEntered()
		select {
		case srv.submit <- ps[i]:
		case <-time.After(10 * time.Second):
			t.Fatalf("submit %d stalled", i)
		}
	}
	return ps
}

func collectWave(t testing.TB, ps []pending) []OffloadResponse {
	t.Helper()
	out := make([]OffloadResponse, len(ps))
	for i, p := range ps {
		select {
		case out[i] = <-p.sink.(chanSink):
		case <-time.After(30 * time.Second):
			t.Fatalf("no reply for request %d", i)
		}
	}
	return out
}

// waveRequests builds a deterministic request trace: wave w's user i always
// has the same position and task, so two coordinators with the same seed
// see byte-identical epochs.
func waveRequests(wave, n int) []OffloadRequest {
	reqs := make([]OffloadRequest, n)
	for i := range reqs {
		reqs[i] = testRequest(
			fmt.Sprintf("w%d-u%d", wave, i),
			0.15*float64(i)-0.3+0.01*float64(wave),
			0.1*float64(wave)-0.2,
		)
		reqs[i].Task.WorkCycles = 2000e6 + 500e6*float64(i%3)
	}
	return reqs
}

// TestMaxBatchImmediateDispatch: with an hour-long window, only the
// MaxBatch threshold can flush — the epoch must dispatch the moment the
// batch fills, not when the window expires.
func TestMaxBatchImmediateDispatch(t *testing.T) {
	cfg := testServerConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 3
	cfg.Workers = 1
	srv := startServer(t, cfg)

	start := time.Now()
	resps := submitWave(t, srv, waveRequests(0, 3))
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("batch answered after %s despite hitting MaxBatch", elapsed)
	}
	for i, r := range resps {
		if r.Error != "" {
			t.Fatalf("request %d failed: %s", i, r.Error)
		}
		if r.Epoch != resps[0].Epoch {
			t.Errorf("request %d scheduled in epoch %d, want shared epoch %d", i, r.Epoch, resps[0].Epoch)
		}
	}
}

// TestBatchWindowExpiryConcurrentSubmits: submissions racing the window
// timer over real connections must all be answered, never lost between the
// collector and the solve queue.
func TestBatchWindowExpiryConcurrentSubmits(t *testing.T) {
	cfg := testServerConfig()
	cfg.BatchWindow = 15 * time.Millisecond
	cfg.MaxBatch = 1000
	cfg.Workers = 2
	srv := startServer(t, cfg)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	epochs := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer cli.Close()
			// Stagger submissions across several windows.
			time.Sleep(time.Duration(i) * 5 * time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			resp, err := cli.Offload(ctx, testRequest(fmt.Sprintf("win-%d", i), 0.1*float64(i)-0.3, 0.1))
			if err != nil {
				errs[i] = err
				return
			}
			epochs[i] = resp.Epoch
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if epochs[i] == 0 {
			t.Errorf("client %d answered without an epoch stamp", i)
		}
	}
}

// TestQueueOverflowFailFast: a batch flushed against a full solve queue is
// rejected immediately with ErrQueueFull instead of queueing unboundedly.
func TestQueueOverflowFailFast(t *testing.T) {
	cfg := testServerConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 4
	cfg.Workers = 1
	cfg.QueueDepth = 1
	// Pin the lone worker on every solve with an injected delay, so the
	// later waves deterministically hit the queue cap however slowly the
	// submitting goroutines are scheduled (a full anneal alone can finish
	// between waves when the suite saturates the host).
	cfg.SolverChaos = &faults.SolverChaos{Seed: 1, DelayProb: 1, Delay: 300 * time.Millisecond}
	srv := startServer(t, cfg)

	var ps []pending
	for wave := 0; wave < 4; wave++ {
		ps = append(ps, submitWaveAsync(t, srv, waveRequests(wave, 4))...)
	}
	resps := collectWave(t, ps)

	var ok, full int
	for _, r := range resps {
		switch {
		case r.Error == "":
			ok++
		case strings.Contains(r.Error, "solve queue full"):
			full++
		default:
			t.Errorf("unexpected error: %s", r.Error)
		}
	}
	// The first wave always solves (in flight or queue head); with one
	// worker and depth 1, at most two waves are absorbed, so at least two
	// must have been shed.
	if ok < 4 {
		t.Errorf("scheduled responses = %d, want >= 4", ok)
	}
	if full < 8 {
		t.Errorf("queue-full rejections = %d, want >= 8", full)
	}
	stats := srv.Stats()
	if stats.EpochsRejected < 2 {
		t.Errorf("epochs rejected = %d, want >= 2", stats.EpochsRejected)
	}
	if got := uint64(full); stats.Rejected < got {
		t.Errorf("rejected requests = %d, want >= %d", stats.Rejected, got)
	}
}

// TestCloseFailsQueuedBatchesUnderLoad: Close must drain the solve queue by
// failing queued batches — every outstanding request gets an answer, none
// hangs on a reply that will never come.
func TestCloseFailsQueuedBatchesUnderLoad(t *testing.T) {
	cfg := testServerConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 6
	cfg.Workers = 1
	cfg.QueueDepth = 16
	ttsaCfg := core.DefaultConfig()
	cfg.TTSA = &ttsaCfg
	srv := startServer(t, cfg)

	var ps []pending
	for wave := 0; wave < 6; wave++ {
		ps = append(ps, submitWaveAsync(t, srv, waveRequests(wave, 6))...)
	}
	// Pull the plug the moment the worker demonstrably holds an epoch, so
	// the queue behind it still has batches for the drain-fail path.
	waitUntil(t, 30*time.Second, "the worker to pick up an epoch", func() bool {
		st := srv.Stats()
		return st.InflightSolves >= 1 || st.Epochs >= 1
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	resps := collectWave(t, ps)
	var ok, failed int
	for _, r := range resps {
		if r.Error == "" {
			ok++
		} else {
			failed++
		}
	}
	if ok+failed != len(ps) {
		t.Fatalf("answered %d of %d requests", ok+failed, len(ps))
	}
	// Six queued epochs at ~tens of ms each cannot all finish in the 10ms
	// before Close: the drain path must have failed at least one batch.
	if failed == 0 {
		t.Error("Close answered every queued batch successfully; drain-fail path never ran")
	}
}

// TestDifferentialWorkerCounts: the pipelined coordinator must produce
// bit-identical per-epoch assignments, grants, and utilities for every
// worker count — the epoch number and its RNG streams are stamped at
// enqueue time, so the solver worker that happens to run an epoch cannot
// influence its result.
func TestDifferentialWorkerCounts(t *testing.T) {
	const (
		waves    = 4
		waveSize = 6
	)
	run := func(workers int) [][]OffloadResponse {
		cfg := testServerConfig()
		cfg.BatchWindow = time.Hour
		cfg.MaxBatch = waveSize
		cfg.Workers = workers
		cfg.QueueDepth = waves + 1
		srv := startServer(t, cfg)

		// Submit every wave before collecting, so with K>1 epochs really
		// do solve concurrently on different workers.
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

// TestPipelineMetricsExposed: the queue/pipeline metrics must surface on
// the coordinator's registry (and therefore on /metrics).
func TestPipelineMetricsExposed(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxBatch = 2
	cfg.Workers = 2
	srv := startServer(t, cfg)
	_ = submitWave(t, srv, waveRequests(0, 2))

	text := string(srv.Metrics().PrometheusText())
	for _, name := range []string{
		"tsajs_coordinator_queue_depth",
		"tsajs_coordinator_inflight_solves",
		"tsajs_coordinator_solver_workers",
		"tsajs_coordinator_epochs_rejected_total",
		"tsajs_coordinator_epoch_latency_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	stats := srv.Stats()
	if stats.SolverWorkers != 2 {
		t.Errorf("solver workers = %d, want 2", stats.SolverWorkers)
	}
	if stats.MeanEpochLatency <= 0 {
		t.Errorf("mean epoch latency = %s, want positive", stats.MeanEpochLatency)
	}
}

// TestServerConfigPipelineValidation covers the new knobs' domains.
func TestServerConfigPipelineValidation(t *testing.T) {
	bad := testServerConfig()
	bad.Workers = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative worker count accepted")
	}
	bad = testServerConfig()
	bad.QueueDepth = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative queue depth accepted")
	}
	cfg := testServerConfig().withDefaults()
	if cfg.Workers < 1 {
		t.Errorf("defaulted workers = %d, want >= 1", cfg.Workers)
	}
	if cfg.QueueDepth < 4 {
		t.Errorf("defaulted queue depth = %d, want >= 4", cfg.QueueDepth)
	}
}
