package cran

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/task"
)

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestDegradedDecisionOnCoordinatorOutage is the headline acceptance
// criterion: with the coordinator unreachable, Offload must return a valid
// local-execution decision priced by Eq. 1 — not an error — and do so
// within the caller's deadline.
func TestDegradedDecisionOnCoordinatorOutage(t *testing.T) {
	cli, err := DialResilient(deadAddr(t), ResilienceConfig{
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		DialTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	req := testRequest("degraded-user", 0.1, 0.05)
	start := time.Now()
	resp, err := cli.Offload(ctx, req)
	if err != nil {
		t.Fatalf("outage must degrade, not error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("degraded decision took %s, beyond the caller deadline", elapsed)
	}
	if !resp.Degraded || resp.Offload {
		t.Fatalf("want local degraded decision, got %+v", resp)
	}
	// Eq. 1 with the config defaults f=1 GHz, kappa=5e-27.
	lc, err := task.Local(req.Task, 1e9, 5e-27)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.ExpectedDelayS-lc.TimeS) > 1e-12 || math.Abs(resp.ExpectedEnergyJ-lc.EnergyJ) > 1e-12 {
		t.Errorf("degraded cost = (%g s, %g J), want Eq. 1 (%g s, %g J)",
			resp.ExpectedDelayS, resp.ExpectedEnergyJ, lc.TimeS, lc.EnergyJ)
	}
	if resp.Utility != 0 {
		t.Errorf("local execution utility = %g, want 0", resp.Utility)
	}
}

// codecs are the two wire protocols the client's single retry loop runs
// over; the resilience tests below run once per codec.
var codecs = []string{ProtoJSON, ProtoBinary}

// TestRetryReconnects exercises the redial path: the first dials fail, the
// retry succeeds, and the caller sees a normal scheduled decision.
func TestRetryReconnects(t *testing.T) {
	srv := startServer(t, testServerConfig())
	for _, proto := range codecs {
		t.Run(proto, func(t *testing.T) {
			var dials atomic.Int64
			cli, err := NewClient(srv.Addr().String(), ResilienceConfig{
				MaxAttempts: 3,
				BackoffBase: time.Millisecond,
				Protocol:    proto,
				Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
					if dials.Add(1) <= 2 {
						return nil, errors.New("injected dial failure")
					}
					var d net.Dialer
					return d.DialContext(ctx, "tcp", addr)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := cli.Offload(ctx, testRequest("retry-"+proto, 0.1, 0.05))
			if err != nil {
				t.Fatal(err)
			}
			if resp.Degraded || resp.Epoch == 0 {
				t.Errorf("want a coordinator-scheduled decision after retry, got %+v", resp)
			}
			if got := dials.Load(); got != 3 {
				t.Errorf("dial attempts = %d, want 3", got)
			}
		})
	}
}

// TestCircuitBreaker pins the open and half-open transitions on both
// codecs. In the holdProbe cases the half-open probe is held inside the
// dialer while eight more calls arrive: they must fail fast without
// dialing, because a half-open breaker admits exactly one probe.
func TestCircuitBreaker(t *testing.T) {
	cases := []struct {
		name      string
		proto     string
		holdProbe bool
	}{
		{"json", ProtoJSON, false},
		{"binary", ProtoBinary, false},
		{"json-single-probe", ProtoJSON, true},
		{"binary-single-probe", ProtoBinary, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dials atomic.Int64
			release := make(chan struct{})
			var releaseOnce sync.Once
			releaseProbe := func() { releaseOnce.Do(func() { close(release) }) }
			defer releaseProbe()
			cli, err := NewClient(deadAddr(t), ResilienceConfig{
				MaxAttempts:      1,
				BreakerThreshold: 2,
				BreakerCooldown:  50 * time.Millisecond,
				DialTimeout:      100 * time.Millisecond,
				Protocol:         tc.proto,
				Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
					if dials.Add(1) == 3 && tc.holdProbe {
						<-release
					}
					return nil, errors.New("injected dial failure")
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			ctx := context.Background()
			req := testRequest("breaker-"+tc.name, 0, 0)
			for i := 0; i < 2; i++ {
				if _, err := cli.Offload(ctx, req); err == nil {
					t.Fatal("failing dialer produced a decision")
				}
			}
			if _, err := cli.Offload(ctx, req); !errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("after threshold failures err = %v, want ErrCircuitOpen", err)
			}
			if got := dials.Load(); got != 2 {
				t.Errorf("open breaker still dialed: %d dials, want 2", got)
			}
			if !tc.holdProbe {
				// After the cooldown the breaker goes half-open and admits
				// one probe. Poll rather than sleep a fixed margin:
				// open-state calls fast-fail without dialing, so the dial
				// count proves exactly one probe went out the moment the
				// breaker admitted it.
				waitUntil(t, 30*time.Second, "the breaker to go half-open", func() bool {
					_, err := cli.Offload(ctx, req)
					return !errors.Is(err, ErrCircuitOpen)
				})
				if got := dials.Load(); got != 3 {
					t.Errorf("half-open probe did not dial: %d dials, want 3", got)
				}
				return
			}

			// Keep offering calls until one is admitted as the probe; the
			// dialer holds it at dial 3.
			probeErr := make(chan error, 1)
			go func() {
				for {
					if _, err := cli.Offload(ctx, req); !errors.Is(err, ErrCircuitOpen) {
						probeErr <- err
						return
					}
				}
			}()
			waitUntil(t, 30*time.Second, "the half-open probe to dial", func() bool {
				return dials.Load() == 3
			})
			const others = 8
			errs := make(chan error, others)
			for i := 0; i < others; i++ {
				go func() {
					_, err := cli.Offload(ctx, req)
					errs <- err
				}()
			}
			failsafe := time.NewTimer(10 * time.Second)
			defer failsafe.Stop()
			for i := 0; i < others; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, ErrCircuitOpen) {
						t.Errorf("call during the half-open probe: err = %v, want ErrCircuitOpen", err)
					}
				case <-failsafe.C:
					releaseProbe()
					t.Fatalf("%d of %d calls blocked behind the half-open probe instead of failing fast", others-i, others)
				}
			}
			if got := dials.Load(); got != 3 {
				t.Errorf("calls during the half-open probe dialed: %d dials, want 3", got)
			}
			releaseProbe()
			if err := <-probeErr; err == nil {
				t.Error("failing probe produced a decision")
			}
			if _, err := cli.Offload(ctx, req); !errors.Is(err, ErrCircuitOpen) {
				t.Errorf("after a failed probe err = %v, want ErrCircuitOpen", err)
			}
		})
	}
}

// TestCloseIdempotentUnderConcurrentUse is the satellite contract: Close is
// idempotent and safe to race against in-flight Offload calls, which must
// return (not hang) once the client is closed.
func TestCloseIdempotentUnderConcurrentUse(t *testing.T) {
	cfg := testServerConfig()
	cfg.BatchWindow = 200 * time.Millisecond // keep requests in flight
	srv := startServer(t, cfg)

	cli, err := NewClient(srv.Addr().String(), ResilienceConfig{MaxAttempts: 1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Outcomes may be a decision or an error depending on the
			// race; the only requirement is that the call returns.
			_, _ = cli.Offload(ctx, testRequest("close-race", 0.1, 0.05))
		}(i)
	}
	// Start closing only once the coordinator has admitted at least one of
	// the calls, so the Close/Offload race is real rather than hoping 20ms
	// of sleep put the goroutines in flight.
	waitUntil(t, 4*time.Second, "an Offload to reach the coordinator", func() bool {
		return srv.Stats().Requests >= 1
	})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cli.Close()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("Offload or Close hung past the deadline after concurrent Close")
	}
	if err1, err2 := cli.Close(), cli.Close(); err1 != err2 {
		t.Errorf("repeated Close returned different errors: %v vs %v", err1, err2)
	}
	if _, err := cli.Offload(context.Background(), testRequest("after-close", 0, 0)); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Offload on closed client err = %v, want ErrClientClosed", err)
	}
}

func TestHealthRoundTrip(t *testing.T) {
	srv := startServer(t, testServerConfig())
	cli, err := NewClient(srv.Addr().String(), ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cli.Offload(ctx, testRequest("health-user", 0.1, 0.05)); err != nil {
		t.Fatal(err)
	}
	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.UptimeS < 0 {
		t.Errorf("uptime = %g", h.UptimeS)
	}
	if h.ActiveConns < 1 {
		t.Errorf("active conns = %d, want at least this client", h.ActiveConns)
	}
	if h.Stats.Requests == 0 || h.Stats.Epochs == 0 {
		t.Errorf("stats missing the offload that just ran: %+v", h.Stats)
	}
	if h2, err := cli.Health(ctx); err != nil {
		t.Fatal(err)
	} else if h2.Stats.HealthChecks == 0 {
		t.Errorf("health checks not counted: %+v", h2.Stats)
	}
}

// TestOversizeRequestRejected is the protocol-limit satellite: a request
// line beyond MaxLineBytes gets the typed limit error and the connection is
// dropped instead of silently wedging the scanner.
func TestOversizeRequestRejected(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxLineBytes = 2048
	srv := startServer(t, cfg)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	huge := append([]byte(`{"version":1,"userId":"`), make([]byte, 8192)...)
	for i := range huge[23:] {
		huge[23+i] = 'x'
	}
	huge = append(huge, []byte(`"}`+"\n")...)
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	var resp OffloadResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no response to oversize request: %v", err)
	}
	if !strings.Contains(resp.Error, ErrRequestTooLarge.Error()) {
		t.Errorf("error = %q, want it to carry %q", resp.Error, ErrRequestTooLarge)
	}
	if srv.Stats().OversizeRequests == 0 {
		t.Error("oversize request not counted")
	}
}

// TestConnectionCapRejects pins the MaxConns accept-side guard.
func TestConnectionCapRejects(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxConns = 1
	srv := startServer(t, cfg)

	cli, err := NewClient(srv.Addr().String(), ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A health probe forces the lazy dial so the slot is actually held.
	if _, err := cli.Health(ctx); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	var resp OffloadResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("over-cap connection got no rejection: %v", err)
	}
	if !strings.Contains(resp.Error, "capacity") {
		t.Errorf("error = %q, want a capacity rejection", resp.Error)
	}
	if srv.Stats().ThrottledConns == 0 {
		t.Error("throttled connection not counted")
	}
}

// TestChaosConnFaultMatrix is the satellite chaos suite: every injected
// transport fault must surface as a typed error or a successful degraded
// (local) decision — never a hang and never a panic.
func TestChaosConnFaultMatrix(t *testing.T) {
	srv := startServer(t, testServerConfig())
	cases := []struct {
		name        string
		chaos       faults.ChaosConfig
		wantDegrade bool // the fault is fatal to every attempt
	}{
		{name: "reset", chaos: faults.ChaosConfig{ResetProb: 1}, wantDegrade: true},
		{name: "dropped-writes", chaos: faults.ChaosConfig{DropWriteProb: 1}, wantDegrade: true},
		{name: "truncated-writes", chaos: faults.ChaosConfig{TruncateWriteProb: 1}, wantDegrade: true},
		{name: "delay-only", chaos: faults.ChaosConfig{DelayProb: 1, Delay: time.Millisecond}},
		{name: "flaky-resets", chaos: faults.ChaosConfig{ResetProb: 0.4, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, err := DialResilient(srv.Addr().String(), ResilienceConfig{
				MaxAttempts: 3,
				BackoffBase: time.Millisecond,
				Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
					var d net.Dialer
					conn, err := d.DialContext(ctx, "tcp", addr)
					if err != nil {
						return nil, err
					}
					return faults.WrapConn(conn, tc.chaos), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			start := time.Now()
			resp, err := cli.Offload(ctx, testRequest("chaos-"+tc.name, 0.1, 0.05))
			if err != nil {
				t.Fatalf("chaos fault leaked as error instead of degrading: %v", err)
			}
			if time.Since(start) > 3*time.Second {
				t.Fatal("call outlived its context deadline")
			}
			if tc.wantDegrade && !resp.Degraded {
				t.Errorf("fatal fault answered without degradation: %+v", resp)
			}
			if resp.Degraded && resp.Offload {
				t.Errorf("degraded decision claims offloading: %+v", resp)
			}
		})
	}
}

// TestChaosListenerServerSide drives faults from the server's side of the
// wire: the coordinator accepts through a chaos listener, and resilient
// clients must still always come back with a decision.
func TestChaosListenerServerSide(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testServerConfig()
	cfg.Listener = faults.WrapListener(ln, faults.ChaosConfig{ResetProb: 0.15, Seed: 11})
	srv := startServer(t, cfg)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := DialResilient(srv.Addr().String(), ResilienceConfig{
				MaxAttempts: 2,
				BackoffBase: time.Millisecond,
				Seed:        uint64(i + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			resp, err := cli.Offload(ctx, testRequest("listener-chaos", 0.05*float64(i), 0.05))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if resp.Degraded && resp.Offload {
				t.Errorf("client %d: degraded decision claims offloading: %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
}

// TestDialKeepsStrictSemantics guards the historical contract relied on by
// existing callers: Dial fails fast on an unreachable coordinator and its
// client never degrades.
func TestDialKeepsStrictSemantics(t *testing.T) {
	if _, err := DialTimeout(deadAddr(t), 200*time.Millisecond); err == nil {
		t.Fatal("DialTimeout to dead coordinator succeeded")
	}

	srv := startServer(t, testServerConfig())
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := cli.Offload(ctx, testRequest("strict", 0, 0)); err == nil {
		t.Error("strict client degraded over a dead coordinator")
	}
	_ = cli.Close()
}
