package cran

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/simrand"
)

// TestBrownoutControllerDeterminism pins the state machine against a
// hand-computed tier trace: immediate escalation, dwell-damped recovery,
// hold in the hysteresis band — and bit-identical traces across runs.
func TestBrownoutControllerDeterminism(t *testing.T) {
	// The default watermarks at QueueDepth 8, with a dwell of 2.
	depths := []int{0, 1, 4, 5, 7, 3, 2, 2, 2, 2, 1, 6}
	want := []epochTier{
		tierFull, tierFull, // idle
		tierTruncated, tierTruncated, // depth >= highAt: escalate now
		tierCheap,               // depth >= cheapAt
		tierCheap,               // band: hold, reset calm
		tierCheap,               // calm 1 of 2
		tierTruncated,           // calm 2: step down one tier
		tierTruncated, tierFull, // dwell again before full
		tierFull,      // already full: calm is moot
		tierTruncated, // spike re-escalates immediately
	}
	run := func() []epochTier {
		b := &brownoutController{enabled: true, highAt: 4, cheapAt: 7, lowAt: 2, dwell: 2}
		got := make([]epochTier, len(depths))
		for i, d := range depths {
			got[i] = b.observe(d)
		}
		return got
	}
	got := run()
	for i := range depths {
		if got[i] != want[i] {
			t.Errorf("depth[%d]=%d: tier %v, want %v", i, depths[i], got[i], want[i])
		}
	}
	if again := run(); !reflect.DeepEqual(got, again) {
		t.Error("identical depth traces produced different tier traces")
	}
	// Disabled controller never degrades, whatever the pressure.
	off := newBrownoutController(BrownoutConfig{}, 8)
	for _, d := range depths {
		if tier := off.observe(d); tier != tierFull {
			t.Fatalf("disabled brownout degraded to %v at depth %d", tier, d)
		}
	}
}

// TestBrownoutDefaultWatermarks pins the watermarks a coordinator with
// brownout enabled derives from its solve queue depth: high at half the
// depth, cheap at seven eighths (both rounded up, at least 1), low at a
// quarter (rounded down), and a dwell of three calm epochs.
func TestBrownoutDefaultWatermarks(t *testing.T) {
	for _, tc := range []struct{ depth, high, cheap, low int }{
		{1, 1, 1, 0},
		{2, 1, 2, 0},
		{4, 2, 4, 1},
		{8, 4, 7, 2},
		{16, 8, 14, 4},
		{64, 32, 56, 16},
	} {
		cfg := testServerConfig()
		cfg.Workers = 1
		cfg.QueueDepth = tc.depth
		cfg.Brownout.Enabled = true
		b := startServer(t, cfg).brownout
		if !b.enabled || b.highAt != tc.high || b.cheapAt != tc.cheap || b.lowAt != tc.low || b.dwell != 3 {
			t.Errorf("depth %d: high/cheap/low/dwell = %d/%d/%d/%d, want %d/%d/%d/3",
				tc.depth, b.highAt, b.cheapAt, b.lowAt, b.dwell, tc.high, tc.cheap, tc.low)
		}
	}
}

func TestWaitEstimatorEWMA(t *testing.T) {
	var w waitEstimator
	if w.estimate(5) != 0 {
		t.Error("fresh estimator predicts a nonzero wait")
	}
	w.note(0.1)
	if got := w.perEpochSeconds(); got != 0.1 {
		t.Errorf("first sample EWMA = %g, want 0.1", got)
	}
	w.note(0.2)
	want := 0.2*0.2 + 0.8*0.1
	if got := w.perEpochSeconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("EWMA = %g, want %g", got, want)
	}
	if got := w.estimate(2); got != time.Duration(2*want*float64(time.Second)) {
		t.Errorf("estimate(2) = %s", got)
	}
}

func TestOverloadConfigValidation(t *testing.T) {
	if err := (OffloadRequest{Version: ProtocolVersion, UserID: "u", DeadlineMs: -1,
		Task: testRequest("u", 0, 0).Task}).Validate(); err == nil {
		t.Error("negative deadline accepted")
	}
	if err := (OffloadRequest{Version: ProtocolVersion, UserID: "u", DeadlineMs: math.NaN(),
		Task: testRequest("u", 0, 0).Task}).Validate(); err == nil {
		t.Error("NaN deadline accepted")
	}
	bad := testServerConfig()
	bad.DefaultDeadline = -time.Second
	if err := bad.Validate(); err == nil {
		t.Error("negative default deadline accepted")
	}
	bad = testServerConfig()
	bad.SolverChaos = &faults.SolverChaos{DelayProb: 2}
	if err := bad.Validate(); err == nil {
		t.Error("invalid solver chaos accepted")
	}
	good := testServerConfig()
	good.DefaultDeadline = 100 * time.Millisecond
	good.Brownout = BrownoutConfig{Enabled: true}
	good.SolverChaos = &faults.SolverChaos{DelayProb: 0.1, Delay: time.Millisecond}
	if err := good.Validate(); err != nil {
		t.Errorf("valid overload config rejected: %v", err)
	}
}

func TestWireErrorTyping(t *testing.T) {
	cases := []struct {
		code string
		want error
	}{
		{CodeQueueFull, ErrQueueFull},
		{CodeAdmission, ErrAdmissionRejected},
		{CodeExpired, ErrDeadlineExceeded},
	}
	for _, tc := range cases {
		err := (OffloadResponse{Error: "x", Code: tc.code}).Err()
		if !errors.Is(err, tc.want) {
			t.Errorf("code %q: errors.Is(%v, %v) = false", tc.code, err, tc.want)
		}
		if !IsBackpressureCode(tc.code) {
			t.Errorf("code %q not classified as backpressure", tc.code)
		}
	}
	if (OffloadResponse{}).Err() != nil {
		t.Error("clean response produced an error")
	}
	if IsBackpressureCode(CodeShutdown) || IsBackpressureCode(CodeInternal) || IsBackpressureCode("") {
		t.Error("non-backpressure code classified as backpressure")
	}
	// Full-tier success responses must not grow new wire fields: the
	// brownout-off protocol stays byte-identical to pre-brownout builds.
	b, err := json.Marshal(OffloadResponse{Version: ProtocolVersion, UserID: "u", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tier", "code", "deadline"} {
		if strings.Contains(string(b), key) {
			t.Errorf("full-tier response leaks %q on the wire: %s", key, b)
		}
	}
}

// TestAdmissionRejectsWhenWaitExceedsDeadline primes the EWMA service-time
// estimator far above a request's deadline and submits through the real
// JSON decode and dispatch path: the request must be refused at admission with the typed
// code, before it ever reaches the batcher.
func TestAdmissionRejectsWhenWaitExceedsDeadline(t *testing.T) {
	srv := startServer(t, testServerConfig())
	srv.wait.note(5.0) // pretend epochs take 5s to serve

	req := testRequest("adm-user", 0.1, 0.05)
	req.Version = ProtocolVersion
	req.DeadlineMs = 10
	line, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp := handleSync(t, srv, line)
	if resp.Code != CodeAdmission {
		t.Fatalf("code = %q (error %q), want %q", resp.Code, resp.Error, CodeAdmission)
	}
	if !errors.Is(resp.Err(), ErrAdmissionRejected) {
		t.Errorf("Err() = %v, want ErrAdmissionRejected", resp.Err())
	}
	stats := srv.Stats()
	if stats.ShedAdmission != 1 {
		t.Errorf("shed admission = %d, want 1", stats.ShedAdmission)
	}
	if stats.Requests != 0 {
		t.Errorf("admission-refused request still counted as admitted: %d", stats.Requests)
	}

	// Without a deadline the same request sails through and is scheduled.
	req.DeadlineMs = 0
	line, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp = handleSync(t, srv, line)
	if resp.Error != "" {
		t.Fatalf("deadline-free request rejected: %s", resp.Error)
	}
	if resp.Epoch == 0 {
		t.Error("scheduled response missing epoch stamp")
	}
}

// TestDeadlineExpiryAtDequeue manufactures queue wait with a deterministic
// slow-solver fault: the first wave (generous deadline) solves; the waves
// stuck behind it (tight deadline) must be answered with CodeExpired at
// dequeue — and the full-solve tripwire must stay zero.
func TestDeadlineExpiryAtDequeue(t *testing.T) {
	cfg := testServerConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 4
	cfg.Workers = 1
	cfg.QueueDepth = 8
	cfg.SolverChaos = &faults.SolverChaos{Seed: 2, DelayProb: 1, Delay: 80 * time.Millisecond}
	srv := startServer(t, cfg)

	first := waveRequests(0, 4)
	for i := range first {
		first[i].DeadlineMs = 10_000
	}
	var ps []pending
	ps = append(ps, submitWaveAsync(t, srv, first)...)
	for wave := 1; wave < 3; wave++ {
		reqs := waveRequests(wave, 4)
		for i := range reqs {
			reqs[i].DeadlineMs = 25
		}
		ps = append(ps, submitWaveAsync(t, srv, reqs)...)
	}
	resps := collectWave(t, ps)

	for i, r := range resps[:4] {
		if r.Error != "" {
			t.Errorf("generous-deadline request %d failed: %s", i, r.Error)
		}
	}
	for i, r := range resps[4:] {
		if r.Code != CodeExpired {
			t.Errorf("queued request %d: code %q (error %q), want %q", i, r.Code, r.Error, CodeExpired)
		}
		if !errors.Is(r.Err(), ErrDeadlineExceeded) {
			t.Errorf("queued request %d: Err() = %v, want ErrDeadlineExceeded", i, r.Err())
		}
	}
	stats := srv.Stats()
	if stats.ShedExpired != 8 {
		t.Errorf("shed expired = %d, want 8", stats.ShedExpired)
	}
	if stats.EpochsExpired != 2 {
		t.Errorf("epochs expired = %d, want 2", stats.EpochsExpired)
	}
	if stats.FullSolvesExpired != 0 {
		t.Errorf("full-solve tripwire fired %d times, want 0", stats.FullSolvesExpired)
	}
	if stats.QueueWaitEstimate <= 0 {
		t.Error("queue wait estimate never updated")
	}
}

// TestBrownoutDegradesUnderPressure drives a single slow worker hard enough
// that the collector sees the queue fill: later epochs must be stamped with
// degraded tiers, answered (not shed), and tagged on the wire.
func TestBrownoutDegradesUnderPressure(t *testing.T) {
	cfg := testServerConfig()
	cfg.BatchWindow = time.Hour
	cfg.MaxBatch = 2
	cfg.Workers = 1
	cfg.QueueDepth = 4 // truncated tier from depth 2, cheap at 4
	cfg.Brownout = BrownoutConfig{Enabled: true}
	cfg.SolverChaos = &faults.SolverChaos{Seed: 3, DelayProb: 1, Delay: 40 * time.Millisecond}
	srv := startServer(t, cfg)

	// Wave 0 goes first and the rest only once the worker has taken its
	// epoch: the depth-4 queue then holds epochs 2-5 however slowly the
	// worker was scheduled, and pressure shows up as degraded tiers rather
	// than a queue-full rejection of epoch 5.
	ps := submitWaveAsync(t, srv, waveRequests(0, 2))
	waitUntil(t, 10*time.Second, "the worker to take epoch 1", func() bool {
		st := srv.Stats()
		return st.QueueDepth == 0 && (st.InflightSolves > 0 || st.Epochs > 0)
	})
	for wave := 1; wave < 5; wave++ {
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
	degraded := counts[TierTruncated] + counts[TierCheap]
	if degraded == 0 {
		t.Fatalf("no degraded-tier responses under sustained pressure: %v", counts)
	}
	if counts[""] == 0 {
		t.Errorf("no full-tier responses; first epoch should solve at full quality: %v", counts)
	}
	stats := srv.Stats()
	if got := 2 * (stats.EpochsDegradedTruncated + stats.EpochsDegradedCheap); got != uint64(degraded) {
		t.Errorf("degraded epochs (%d requests) disagree with degraded responses (%d)", got, degraded)
	}
	if stats.Epochs != 5 {
		t.Errorf("epochs = %d, want 5", stats.Epochs)
	}
}

// TestBrownoutIdleDifferential is the acceptance criterion's differential:
// with brownout disabled — and with it enabled but never engaged — the
// serving path must stay bit-identical across worker counts and to the
// pre-brownout behaviour.
func TestBrownoutIdleDifferential(t *testing.T) {
	const waves, waveSize = 3, 6
	run := func(enabled bool, workers int) [][]OffloadResponse {
		cfg := testServerConfig()
		cfg.BatchWindow = time.Hour
		cfg.MaxBatch = waveSize
		cfg.Workers = workers
		cfg.Brownout.Enabled = enabled
		srv := startServer(t, cfg)
		out := make([][]OffloadResponse, waves)
		for w := 0; w < waves; w++ {
			// Collect each wave before submitting the next: the queue is
			// empty at every flush, so an enabled controller observes depth
			// 0 throughout and must never degrade.
			out[w] = submitWave(t, srv, waveRequests(w, waveSize))
		}
		return out
	}
	base := run(false, 1)
	for _, variant := range []struct {
		name string
		got  [][]OffloadResponse
	}{
		{"disabled workers=4", run(false, 4)},
		{"enabled workers=1", run(true, 1)},
		{"enabled workers=4", run(true, 4)},
	} {
		for w := range base {
			for i := range base[w] {
				if base[w][i].Error != "" {
					t.Fatalf("baseline wave %d user %d failed: %s", w, i, base[w][i].Error)
				}
				if !reflect.DeepEqual(base[w][i], variant.got[w][i]) {
					t.Errorf("%s: wave %d user %d diverged:\n  base: %+v\n  got:  %+v",
						variant.name, w, i, base[w][i], variant.got[w][i])
				}
			}
		}
	}
}

// TestCloseRacesConcurrentSubmits races Close against a storm of concurrent
// submitters: every request that made it into the collector must be
// answered exactly once — scheduled or failed — and none may hang. Run
// under -race this also checks the drain-on-close path for data races.
func TestCloseRacesConcurrentSubmits(t *testing.T) {
	cfg := testServerConfig()
	cfg.BatchWindow = time.Millisecond
	cfg.MaxBatch = 4
	cfg.Workers = 2
	cfg.QueueDepth = 4
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 15
	var mu sync.Mutex
	var entered []pending
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				req := testRequest(fmt.Sprintf("race-%d-%d", g, k), 0.05*float64(g)-0.2, 0.05*float64(k)-0.3)
				req.Version = ProtocolVersion
				srv.applyDefaults(&req)
				p := pending{req: req, sink: make(chanSink, 1), arrived: time.Now()}
				srv.stats.requestEntered()
				select {
				case srv.submit <- p:
					mu.Lock()
					entered = append(entered, p)
					mu.Unlock()
				case <-srv.quit:
					return
				}
			}
		}(g)
	}
	// Close once the storm is demonstrably in flight — some submitters in,
	// the rest still racing — instead of sleeping and hoping the scheduler
	// got them there.
	waitUntil(t, 30*time.Second, "submitters to enter the collector", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(entered) >= goroutines*2
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, p := range entered {
		select {
		case <-p.sink.(chanSink):
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d never answered after Close", i)
		}
		select {
		case extra := <-p.sink.(chanSink):
			t.Fatalf("request %d answered twice; second: %+v", i, extra)
		default:
		}
	}
}

// TestMarkovOutagePipelinedServer drives the pipelined coordinator through
// a Markov coordinator-outage plan: per-epoch availability decisions are a
// pure function of the plan, so the degraded/served split must be identical
// for one worker and four — and match the plan's availability metric.
func TestMarkovOutagePipelinedServer(t *testing.T) {
	plan, err := faults.Generate(faults.Config{
		CoordFailProb:    0.3,
		CoordRecoverProb: 0.5,
	}, 4, 12, simrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	downs := 0
	for e := 0; e < plan.Epochs(); e++ {
		if plan.CoordinatorDown(e) {
			downs++
		}
	}
	if downs == 0 || downs == plan.Epochs() {
		t.Fatalf("degenerate plan: %d/%d epochs down; pick another seed", downs, plan.Epochs())
	}

	run := func(workers int) []bool {
		cfg := testServerConfig()
		cfg.Workers = workers
		srv := startServer(t, cfg)
		degraded := make([]bool, plan.Epochs())
		for e := 0; e < plan.Epochs(); e++ {
			e := e
			cli, err := DialResilient(srv.Addr().String(), ResilienceConfig{
				MaxAttempts: 1,
				DialTimeout: 2 * time.Second,
				Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
					if plan.CoordinatorDown(e) {
						return nil, errors.New("markov outage window")
					}
					var d net.Dialer
					return d.DialContext(ctx, "tcp", addr)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			resp, err := cli.Offload(ctx, testRequest(fmt.Sprintf("mk-%d", e), 0.02*float64(e)-0.1, 0.05))
			cancel()
			_ = cli.Close()
			if err != nil {
				t.Fatalf("workers=%d epoch %d: %v", workers, e, err)
			}
			degraded[e] = resp.Degraded
		}
		return degraded
	}

	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("availability outcomes diverged across worker counts:\n  workers=1: %v\n  workers=4: %v", seq, par)
	}
	got := 0
	for e, d := range seq {
		if d != plan.CoordinatorDown(e) {
			t.Errorf("epoch %d: degraded=%v, plan down=%v", e, d, plan.CoordinatorDown(e))
		}
		if !d {
			got++
		}
	}
	if want := plan.CoordinatorAvailability(); math.Abs(float64(got)/float64(len(seq))-want) > 1e-9 {
		t.Errorf("served fraction %g disagrees with plan availability %g", float64(got)/float64(len(seq)), want)
	}
}

// TestResilientClientBackpressureBackoff is the DialResilient regression:
// a queue-full shed must be retried with backoff — not treated as a
// transport failure, not counted against the breaker — and succeed on the
// retry.
func TestResilientClientBackpressureBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A fake coordinator that sheds the first request with a typed
	// queue-full error and schedules the second.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := bufio.NewReader(conn)
		for i := 0; ; i++ {
			if _, err := rd.ReadBytes('\n'); err != nil {
				return
			}
			var resp OffloadResponse
			if i == 0 {
				resp = OffloadResponse{Version: ProtocolVersion, UserID: "bp-user",
					Error: ErrQueueFull.Error(), Code: CodeQueueFull}
			} else {
				resp = OffloadResponse{Version: ProtocolVersion, UserID: "bp-user", Offload: false, Epoch: 7}
			}
			b, _ := json.Marshal(resp)
			if _, err := conn.Write(append(b, '\n')); err != nil {
				return
			}
		}
	}()

	m := obs.NewClientMetrics(obs.NewRegistry())
	cli, err := DialResilient(ln.Addr().String(), ResilienceConfig{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := cli.Offload(ctx, testRequest("bp-user", 0.1, 0.05))
	if err != nil {
		t.Fatalf("backpressure retry failed: %v", err)
	}
	if resp.Degraded || resp.Epoch != 7 {
		t.Fatalf("want the retried scheduled decision, got %+v", resp)
	}
	if got := m.Retries.Value(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := m.TransportFailures.Value(); got != 0 {
		t.Errorf("transport failures = %d, want 0 (sheds are not faults)", got)
	}
	if got := m.BreakerFastFails.Value(); got != 0 {
		t.Errorf("breaker fast-fails = %d, want 0 (sheds must not trip the breaker)", got)
	}
}

// TestResilientClientShedExhaustionDegrades: when every attempt is shed,
// DialResilient falls back to the Eq.-1 local decision instead of surfacing
// the backpressure error.
func TestResilientClientShedExhaustionDegrades(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := bufio.NewReader(conn)
		for {
			if _, err := rd.ReadBytes('\n'); err != nil {
				return
			}
			b, _ := json.Marshal(OffloadResponse{Version: ProtocolVersion,
				Error: ErrAdmissionRejected.Error(), Code: CodeAdmission})
			if _, err := conn.Write(append(b, '\n')); err != nil {
				return
			}
		}
	}()

	m := obs.NewClientMetrics(obs.NewRegistry())
	cli, err := DialResilient(ln.Addr().String(), ResilienceConfig{
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := cli.Offload(ctx, testRequest("shed-user", 0.1, 0.05))
	if err != nil {
		t.Fatalf("shed exhaustion must degrade, not error: %v", err)
	}
	if !resp.Degraded || resp.Offload {
		t.Fatalf("want local degraded decision, got %+v", resp)
	}
	if got := m.Degraded.Value(); got != 1 {
		t.Errorf("degraded = %d, want 1", got)
	}
	if got := m.BreakerFastFails.Value(); got != 0 {
		t.Errorf("breaker fast-fails = %d, want 0", got)
	}
}
