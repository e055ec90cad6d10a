package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/task"
)

func TestCoordinatorServesUntilStopped(t *testing.T) {
	stop := make(chan struct{})
	var sb strings.Builder
	var mu sync.Mutex
	out := &lockedWriter{sb: &sb, mu: &mu}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-servers", "3", "-channels", "2",
			"-window", "20ms", "-budget", "800",
		}, out, stop)
	}()

	// Wait for the listening banner to learn the bound address.
	addr := waitForBanner(t, out, "listening on ")

	cli, err := cran.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cli.Offload(ctx, cran.OffloadRequest{
		UserID: "cli-test",
		Pos:    geom.Point{X: 0.1, Y: 0.1},
		Task:   task.Task{DataBits: 1e6, WorkCycles: 2e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.UserID != "cli-test" {
		t.Errorf("response user = %q", resp.UserID)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not stop")
	}
}

// TestCoordinatorIntrospectionEndpoint spawns a coordinator with
// -metrics-addr and scrapes /metrics, /stats, and /healthz over HTTP — the
// smoke test that the introspection endpoint actually serves what the docs
// promise.
func TestCoordinatorIntrospectionEndpoint(t *testing.T) {
	stop := make(chan struct{})
	var sb strings.Builder
	var mu sync.Mutex
	out := &lockedWriter{sb: &sb, mu: &mu}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-servers", "3", "-channels", "2", "-window", "10ms", "-budget", "500",
		}, out, stop)
	}()
	defer func() {
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Error("coordinator did not stop")
		}
	}()

	addr := waitForBanner(t, out, "listening on ")
	metricsURL := waitForBanner(t, out, "metrics on ")

	// Send one request so the counters are non-trivial.
	cli, err := cran.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cli.Offload(ctx, cran.OffloadRequest{
		UserID: "scrape-test",
		Pos:    geom.Point{X: 0.1, Y: 0.1},
		Task:   task.Task{DataBits: 1e6, WorkCycles: 2e9},
	}); err != nil {
		t.Fatal(err)
	}

	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	base := strings.TrimSuffix(metricsURL, "/metrics")
	metrics := get(metricsURL)
	for _, want := range []string{
		"tsajs_coordinator_requests_total 1",
		"# TYPE tsajs_coordinator_solve_seconds histogram",
		`tsajs_solver_solves_total{scheme="TSAJS"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var stats struct {
		Requests uint64 `json:"requests"`
		Epochs   uint64 `json:"epochs"`
	}
	if err := json.Unmarshal([]byte(get(base+"/stats")), &stats); err != nil {
		t.Fatalf("/stats is not JSON: %v", err)
	}
	if stats.Requests != 1 || stats.Epochs != 1 {
		t.Errorf("/stats = %+v, want 1 request over 1 epoch", stats)
	}

	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(get(base+"/healthz")), &health); err != nil {
		t.Fatalf("/healthz is not JSON: %v", err)
	}
	if health.Status != "ok" {
		t.Errorf("/healthz status = %q", health.Status)
	}
}

func TestCoordinatorRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-servers", "0"}, &sb, make(chan struct{})); err == nil {
		t.Error("zero servers accepted")
	}
	if err := run([]string{"-listen", "256.0.0.1:99999"}, &sb, make(chan struct{})); err == nil {
		t.Error("bad listen address accepted")
	}
	if err := run([]string{"-nope"}, &sb, nil); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-shards", "2", "-shard-index", "2"}, &sb, make(chan struct{})); err == nil {
		t.Error("shard index out of range accepted")
	}
	if err := run([]string{"-shard-index", "1"}, &sb, make(chan struct{})); err == nil {
		t.Error("-shard-index without -shards accepted")
	}
	if err := run([]string{"-shard-addrs", "127.0.0.1:1"}, &sb, make(chan struct{})); err == nil {
		t.Error("-shard-addrs without -router accepted")
	}
	if err := run([]string{"-router"}, &sb, make(chan struct{})); err == nil {
		t.Error("-router without -shard-addrs accepted")
	}
	if err := run([]string{"-router", "-shard-addrs", "127.0.0.1:1,,127.0.0.1:2"}, &sb, make(chan struct{})); err == nil {
		t.Error("empty shard address accepted")
	}
}

// TestRouterHonoursWireLimitFlags: the router mode serves under the same
// -read-timeout, -max-line-bytes and -max-conns limits as a coordinator, so
// an invalid limit is refused before anything is served.
func TestRouterHonoursWireLimitFlags(t *testing.T) {
	stopped := make(chan struct{})
	close(stopped) // a router that does start returns at once
	var sb strings.Builder
	err := run([]string{"-router", "-shard-addrs", "127.0.0.1:1", "-max-line-bytes", "100"}, &sb, stopped)
	if err == nil || !strings.Contains(err.Error(), "max line length") {
		t.Fatalf("router with -max-line-bytes 100 returned %v, want the limits validation error", err)
	}
	if strings.Contains(sb.String(), "router listening") {
		t.Errorf("router started despite the invalid limit:\n%s", sb.String())
	}
}

// TestCoordinatorDeltaFlag serves two epochs in delta mode through the
// command's flag surface and asserts the mode banner and the shutdown
// summary's full/repair split.
func TestCoordinatorDeltaFlag(t *testing.T) {
	stop := make(chan struct{})
	var sb strings.Builder
	var mu sync.Mutex
	out := &lockedWriter{sb: &sb, mu: &mu}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-servers", "3", "-channels", "2",
			"-window", "10ms", "-budget", "800", "-delta", "-delta-threshold-km", "0.05",
		}, out, stop)
	}()
	addr := waitForBanner(t, out, "listening on ")
	if !strings.Contains(out.String(), "delta-epoch serving:") {
		t.Error("delta mode banner missing")
	}

	cli, err := cran.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Two sequential epochs from one barely-moving user: the first is a
	// full solve (cadence), the second a repair with a clean tracker row.
	for i := 0; i < 2; i++ {
		if _, err := cli.Offload(ctx, cran.OffloadRequest{
			UserID: "delta-cli",
			Pos:    geom.Point{X: 0.1 + 0.001*float64(i), Y: 0.1},
			Task:   task.Task{DataBits: 1e6, WorkCycles: 2e9},
		}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not stop")
	}
	text := out.String()
	if !strings.Contains(text, "delta: 1 full epochs, 1 repair epochs") {
		t.Errorf("shutdown summary missing delta split:\n%s", text)
	}
}

// startProc runs the command in a goroutine and returns the address parsed
// from its banner plus a shutdown func that asserts a clean exit.
func startProc(t *testing.T, args []string, marker string) (addr string, shutdown func()) {
	t.Helper()
	stop := make(chan struct{})
	var sb strings.Builder
	var mu sync.Mutex
	out := &lockedWriter{sb: &sb, mu: &mu}
	done := make(chan error, 1)
	go func() { done <- run(args, out, stop) }()

	addr = waitForBanner(t, out, marker)
	return addr, func() {
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("process %v did not stop", args)
		}
	}
}

// TestCoordinatorShardClusterWithRouter boots a 2-shard cluster plus a
// router, all through the command's own flag surface, and drives requests in
// both shards' territories through the single router endpoint.
func TestCoordinatorShardClusterWithRouter(t *testing.T) {
	common := []string{"-servers", "4", "-channels", "2", "-window", "10ms", "-budget", "500"}
	var shardAddrs []string
	for i := 0; i < 2; i++ {
		args := append([]string{"-listen", "127.0.0.1:0", "-shards", "2", "-shard-index", fmt.Sprint(i)}, common...)
		addr, shutdown := startProc(t, args, "listening on ")
		defer shutdown()
		shardAddrs = append(shardAddrs, addr)
	}
	routerAddr, shutdownRouter := startProc(t,
		append([]string{"-listen", "127.0.0.1:0", "-router", "-shard-addrs", strings.Join(shardAddrs, ",")}, common...),
		"router listening on ")
	defer shutdownRouter()

	cli, err := cran.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// One request near each of the four cell sites: whatever the ring
	// assignment is, both shards see traffic, and every offloaded decision
	// names the serving cell itself.
	sites := geom.HexLayout(4, scenario.DefaultParams().InterSiteKm)
	for cell, site := range sites {
		resp, err := cli.Offload(ctx, cran.OffloadRequest{
			UserID: "cluster-user",
			Pos:    geom.Point{X: site.X + 0.02, Y: site.Y + 0.01},
			Task:   task.Task{DataBits: 1e6, WorkCycles: 2e9},
		})
		if err != nil {
			t.Fatalf("cell %d: %v", cell, err)
		}
		if resp.Offload && resp.Server != cell {
			t.Errorf("cell %d: offloaded to server %d", cell, resp.Server)
		}
	}

	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.ShardCount != 2 {
		t.Errorf("merged health ShardCount = %d, want 2", h.Stats.ShardCount)
	}
	if h.Stats.Requests != uint64(len(sites)) {
		t.Errorf("merged health Requests = %d, want %d", h.Stats.Requests, len(sites))
	}
	if h.Stats.WrongShard != 0 {
		t.Errorf("wrong-shard tripwire fired %d times", h.Stats.WrongShard)
	}
	if h.Stats.CellsOwned != 4 {
		t.Errorf("merged CellsOwned = %d, want 4", h.Stats.CellsOwned)
	}
}

type lockedWriter struct {
	sb *strings.Builder
	mu *sync.Mutex
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

// String returns a consistent snapshot of everything written so far.
func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// waitForBanner polls the process output every millisecond until marker
// appears followed by at least one field, and returns that first field —
// condition-driven instead of the fixed 10ms sleeps it replaces, so slow
// machines get the full deadline and fast ones don't oversleep.
func waitForBanner(t *testing.T, out *lockedWriter, marker string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		text := out.String()
		if i := strings.Index(text, marker); i >= 0 {
			if fields := strings.Fields(text[i+len(marker):]); len(fields) > 0 {
				return fields[0]
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("output never contained %q", marker)
	return ""
}

// TestSharedFlagUsage checks that the coordinator flags this command shares
// with tsajs-loadgen print exactly the help pinned in
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
	err = run([]string{"-h"}, io.Discard, nil)
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
