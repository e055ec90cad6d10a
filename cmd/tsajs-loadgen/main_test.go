package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/task"
)

// TestLoadgenSelfHostedRun drives a short self-hosted run end to end and
// checks the JSON report is coherent: requests were scheduled, throughput
// and latency fields are populated, and the worker count round-tripped.
func TestLoadgenSelfHostedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation run skipped in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-conns", "4",
		"-duration", "600ms",
		"-window", "10ms",
		"-budget", "300",
		"-workers", "2",
		"-queue-depth", "8",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// First line is the self-host banner; the rest is the JSON report.
	text := out.String()
	idx := strings.Index(text, "{")
	if idx < 0 {
		t.Fatalf("no JSON report in output:\n%s", text)
	}
	var rep report
	if err := json.Unmarshal([]byte(text[idx:]), &rep); err != nil {
		t.Fatalf("report not parseable: %v\n%s", err, text)
	}
	if rep.Scheduled == 0 {
		t.Errorf("no requests scheduled: %+v", rep)
	}
	if rep.TransportErrors != 0 {
		t.Errorf("transport errors = %d, want 0", rep.TransportErrors)
	}
	if rep.EpochsPerSec <= 0 {
		t.Errorf("epochs/sec = %v, want positive", rep.EpochsPerSec)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Errorf("latency percentiles incoherent: p50=%v p99=%v", rep.P50Ms, rep.P99Ms)
	}
	if rep.SolverWorkers != 2 {
		t.Errorf("solver workers = %d, want 2", rep.SolverWorkers)
	}
}

// TestLoadgenShardedClusterRun boots the self-hosted 4-shard cluster mode
// and checks the cluster view of the report: traffic reached the shards, the
// walkers' site-hopping produced cross-shard handoffs, and the wrong-shard
// tripwire stayed silent (client and coordinators derived the same ring).
func TestLoadgenShardedClusterRun(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation run skipped in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-shards", "4",
		"-protocol", "binary",
		"-conns", "4",
		"-duration", "600ms",
		"-window", "10ms",
		"-budget", "300",
		"-workers", "2",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	idx := strings.Index(text, "{")
	if idx < 0 {
		t.Fatalf("no JSON report in output:\n%s", text)
	}
	var rep report
	if err := json.Unmarshal([]byte(text[idx:]), &rep); err != nil {
		t.Fatalf("report not parseable: %v\n%s", err, text)
	}
	if rep.Shards != 4 {
		t.Errorf("shards = %d, want 4", rep.Shards)
	}
	if rep.Scheduled == 0 {
		t.Errorf("no requests scheduled: %+v", rep)
	}
	if rep.TransportErrors != 0 {
		t.Errorf("transport errors = %d, want 0", rep.TransportErrors)
	}
	if rep.Handoffs == 0 {
		t.Error("no cross-shard handoffs; the walkers never crossed a shard boundary")
	}
	if rep.WrongShard != 0 {
		t.Errorf("wrong-shard rejections = %d, want 0", rep.WrongShard)
	}
	// Merged over 4 shards with 2 workers each.
	if rep.SolverWorkers != 8 {
		t.Errorf("merged solver workers = %d, want 8", rep.SolverWorkers)
	}
}

// TestLoadgenReportsWindowOnly drives -addr against a coordinator that
// has already batched a burst of requests and shed part of it. The report
// must count the measured window alone: one closed-loop connection makes
// one-request epochs and never fills the queue.
func TestLoadgenReportsWindowOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation run skipped in -short mode")
	}
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = 200
	srv, err := cran.NewServer("127.0.0.1:0", cran.ServerConfig{
		Params:      scenario.DefaultParams(),
		BatchWindow: 20 * time.Millisecond,
		MaxBatch:    4,
		Workers:     1,
		QueueDepth:  1,
		TTSA:        &ttsaCfg,
		SolverChaos: &faults.SolverChaos{Seed: 1, DelayProb: 1, Delay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	// Twelve requests at once close three 4-request epochs while the first
	// one solves, so the third finds the 1-deep queue full.
	clis := make([]*cran.Client, 12)
	for i := range clis {
		if clis[i], err = cran.Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer clis[i].Close()
	}
	var wg sync.WaitGroup
	for i, cli := range clis {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli.Offload(context.Background(), cran.OffloadRequest{
				UserID: fmt.Sprintf("burst-%d", i),
				Pos:    geom.Point{X: 0.01 * float64(i)},
				Task:   task.Task{DataBits: 420 * 8 * 1024, WorkCycles: 1000e6},
			})
		}()
	}
	wg.Wait()
	if st := srv.Stats(); st.EpochsRejected == 0 || st.MeanBatch <= 1 {
		t.Fatalf("the burst did not batch and shed: %d epochs rejected, mean batch %.2f", st.EpochsRejected, st.MeanBatch)
	}

	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-conns", "1", "-duration", "300ms", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not parseable: %v\n%s", err, out.String())
	}
	if rep.Scheduled == 0 || rep.EpochsRejected != 0 || rep.MeanBatch != 1 {
		t.Errorf("window report: %d scheduled, %d epochs rejected, mean batch %.2f; want >0, 0, 1",
			rep.Scheduled, rep.EpochsRejected, rep.MeanBatch)
	}
}

// TestLoadgenFlagValidation covers the argument domain checks.
func TestLoadgenFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-conns", "0"}, &out); err == nil {
		t.Error("conns=0 accepted")
	}
	if err := run([]string{"-duration", "0s"}, &out); err == nil {
		t.Error("duration=0 accepted")
	}
	if err := run([]string{"-shards", "2", "-addr", "127.0.0.1:1"}, &out); err == nil {
		t.Error("-shards with -addr accepted")
	}
}

// TestLoadgenDeadlineBrownoutRun runs a self-hosted coordinator with a
// 60ms default deadline, given as a duration like the coordinator's
// -deadline, and brownout on.
func TestLoadgenDeadlineBrownoutRun(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation run skipped in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-conns", "2", "-duration", "400ms", "-window", "10ms", "-budget", "300",
		"-deadline", "60ms", "-brownout", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	var rep report
	if err := json.Unmarshal([]byte(text[strings.Index(text, "{"):]), &rep); err != nil {
		t.Fatalf("report not parseable: %v\n%s", err, text)
	}
	if rep.Requests == 0 || rep.TransportErrors != 0 {
		t.Errorf("%d requests, %d transport errors; want some, none", rep.Requests, rep.TransportErrors)
	}
}

// TestLoadgenPacedLatencyCountsQueueing paces one connection at 100 req/s
// against epochs slower than the 10 ms send interval (a 10 ms batch window
// plus a 40 ms injected solver delay), so each send falls further behind
// its schedule. Timed from the scheduled send, p99 must show that backlog,
// several epochs' service time; timed from the actual send it would read
// about one epoch.
func TestLoadgenPacedLatencyCountsQueueing(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation run skipped in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-conns", "1", "-rate", "100", "-duration", "1s", "-window", "10ms",
		"-chaos", "40ms", "-budget", "300", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	var rep report
	if err := json.Unmarshal([]byte(text[strings.Index(text, "{"):]), &rep); err != nil {
		t.Fatalf("report not parseable: %v\n%s", err, text)
	}
	const epochMs = 10 + 40
	if rep.Scheduled == 0 || rep.P99Ms < 4*epochMs {
		t.Errorf("%d scheduled, p99 %.1f ms; want some, and p99 >= %d ms (4 epochs)", rep.Scheduled, rep.P99Ms, 4*epochMs)
	}
}

// TestQuantileMs pins the nearest-rank percentile helper.
func TestQuantileMs(t *testing.T) {
	if got := quantileMs(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	sorted := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond}
	if got := quantileMs(sorted, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := quantileMs(sorted, 1); got != 10 {
		t.Errorf("q1 = %v, want 10", got)
	}
	if got := quantileMs(sorted, 0.5); got != 2 {
		t.Errorf("q0.5 = %v, want 2", got)
	}
}

// TestSharedFlagUsage checks that the coordinator flags this command shares
// with tsajs-coordinator print exactly the help pinned in
// internal/cli/testdata/coordinator_usage.txt, as they do there, so the
// two commands describe them identically (defaults aside: each command
// picks its own -window and -budget).
func TestSharedFlagUsage(t *testing.T) {
	want, err := os.ReadFile("../../internal/cli/testdata/coordinator_usage.txt")
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	err = run([]string{"-h"}, io.Discard)
	os.Stderr = saved
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	help, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(` \(default [^)]*\)`).ReplaceAllString(string(help), "")
	blocks := regexp.MustCompile(`(?m)^  -`).Split(string(want), -1)[1:]
	if len(blocks) != 15 {
		t.Fatalf("%d pinned flags, want 15", len(blocks))
	}
	for _, b := range blocks {
		if !strings.Contains(got, "  -"+b) {
			t.Errorf("help lacks the pinned block:\n  -%s", b)
		}
	}
}
