package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/scenario"
)

// coordinatorSeed drives the coordinator's channel estimator and search.
// It is fixed: the benchmark seed only shapes the generated requests.
const coordinatorSeed = 1

// warmupWaves is how many one-epoch waves set-up sends before the
// measured window, so scratch buffers, connections and the admission
// estimator are warm when the schedule starts. Enough waves that set-up
// takes tens of milliseconds, well above a single wake-up's jitter.
const warmupWaves = 32

// rig is a self-hosted coordinator and the multiplexed binary clients
// that drive it.
type rig struct {
	srv     *cran.Server
	reg     *obs.Registry
	clients []*cran.Client
	// wire counts the coordinator's socket reads and writes; nil on
	// untraced rigs, which serve on a plain listener.
	wire *wireListener
	// sent counts every request sent through the rig, warm-up included:
	// each moves exactly one request and one response frame.
	sent int
}

func serverConfig(w workload, reg *obs.Registry) cran.ServerConfig {
	ttsa := core.DefaultConfig()
	ttsa.MaxEvaluations = w.budget
	cfg := cran.ServerConfig{
		Params:      scenario.DefaultParams(),
		BatchWindow: w.window,
		QueueDepth:  w.queueDepth,
		Workers:     w.workers,
		TTSA:        &ttsa,
		Seed:        coordinatorSeed,
		Metrics:     reg,
		Brownout:    cran.BrownoutConfig{Enabled: w.brownout},
	}
	if w.delta {
		cfg.Delta = &delta.Config{MoveThresholdKm: moveThresholdKm}
	}
	return cfg
}

// setUp starts a coordinator for w, dials one multiplexed client per
// processor and sends the warm-up waves. It returns the rig and how long
// all of it took.
func setUp(w workload, seed uint64, traced bool) (*rig, time.Duration, error) {
	start := time.Now()
	reg := obs.NewRegistry()
	cfg := serverConfig(w, reg)
	r := &rig{reg: reg}
	if traced {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, fmt.Errorf("listen: %w", err)
		}
		r.wire = &wireListener{Listener: ln}
		cfg.Listener = r.wire
	}
	srv, err := cran.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		if r.wire != nil {
			_ = r.wire.Close()
		}
		return nil, 0, fmt.Errorf("start coordinator: %w", err)
	}
	r.srv = srv
	for i := 0; i < procs(); i++ {
		c, err := cran.DialBinary(srv.Addr().String())
		if err != nil {
			r.close()
			return nil, 0, fmt.Errorf("dial coordinator: %w", err)
		}
		r.clients = append(r.clients, c)
	}
	if err := r.warmUp(warmupSchedule(w, seed, warmupWaves)); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, time.Since(start), nil
}

// warmUp sends the warm-up requests one epoch-sized wave at a time,
// waiting for each wave's answers before the next.
func (r *rig) warmUp(reqs []request) error {
	r.sent += len(reqs)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for lo := 0; lo < len(reqs); lo += epochSlots {
		wave := reqs[lo:min(lo+epochSlots, len(reqs))]
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		for i := range wave {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = r.clients[i%len(r.clients)].Offload(ctx, wave[i].req)
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (r *rig) close() {
	for _, c := range r.clients {
		_ = c.Close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
}

// outcome classifies how the coordinator disposed of one request.
type outcome uint8

const (
	pendingOutcome outcome = iota
	answered               // a decision, at any quality tier
	shed                   // refused at admission or at a full solve queue
	expired                // deadline passed while its epoch was queued
	failed                 // anything else: transport or internal error
)

// record is what the benchmark keeps of one scheduled request. Each record
// is written only by the goroutine that sent its request.
type record struct {
	outcome  outcome
	outcomes int32 // outcomes recorded; must end at exactly 1
	echoOK   bool  // the response's UserID echoed the request's
	degraded bool  // answered below full quality (brownout tier)
	offload  bool
	server   int32
	channel  int32
	epoch    uint64
	fusHz    float64
	utility  float64
	// lag is how late the generator launched the request; latency runs
	// from the scheduled send to the answer.
	lag     time.Duration
	latency time.Duration
	err     error
}

func (rec *record) classify(want string, resp cran.OffloadResponse, err error) {
	rec.outcomes++
	rec.err = err
	switch {
	case err == nil:
		rec.outcome = answered
		rec.echoOK = resp.UserID == want
		rec.degraded = resp.Tier != ""
		rec.offload = resp.Offload
		rec.server = int32(resp.Server)
		rec.channel = int32(resp.Channel)
		rec.epoch = resp.Epoch
		rec.fusHz = resp.FUsHz
		rec.utility = resp.Utility
	case errors.Is(err, cran.ErrAdmissionRejected), errors.Is(err, cran.ErrQueueFull):
		rec.outcome = shed
	case errors.Is(err, cran.ErrDeadlineExceeded):
		rec.outcome = expired
	default:
		rec.outcome = failed
	}
}

// drainTimeout bounds how long the benchmark waits for answers after the
// last scheduled send; a request still unanswered then counts as failed.
const drainTimeout = 20 * time.Second

// drive plays the open-loop schedule against the rig: each request is sent
// at its scheduled time on its own goroutine, whatever happened to the
// earlier ones, over the clients in round robin. It returns one record per
// request once every request has an outcome, and the time the schedule
// started.
func (r *rig) drive(sched []request) ([]record, time.Time) {
	r.sent += len(sched)
	recs := make([]record, len(sched))
	span := time.Duration(0)
	if n := len(sched); n > 0 {
		span = sched[n-1].at
	}
	ctx, cancel := context.WithTimeout(context.Background(), span+drainTimeout)
	defer cancel()
	var wg sync.WaitGroup
	// The generator runs ahead of the first due time by a small lead so
	// the first request is not already late when the loop starts.
	start := time.Now().Add(2 * time.Millisecond)
	for i := range sched {
		due := start.Add(sched[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		rec := &recs[i]
		rec.lag = now.Sub(due)
		cli := r.clients[i%len(r.clients)]
		wg.Add(1)
		go func(req cran.OffloadRequest) {
			defer wg.Done()
			resp, err := cli.Offload(ctx, req)
			rec.latency = time.Since(due)
			rec.classify(req.UserID, resp, err)
		}(sched[i].req)
	}
	wg.Wait()
	return recs, start
}

// serverCounters is the slice of coordinator state the benchmark compares
// before and after a measured window.
type serverCounters struct {
	stats        cran.Stats
	epochLatency obs.HistogramSnapshot
	solve        obs.HistogramSnapshot
	evals        uint64
	accepted     uint64
	priced       uint64
}

func (r *rig) counters() serverCounters {
	const scheme = "TSAJS"
	label := obs.Label{Key: "scheme", Value: scheme}
	counter := func(name string) uint64 { return r.reg.Counter(name, "", label).Value() }
	better := counter("tsajs_solver_moves_accepted_better_total")
	worse := counter("tsajs_solver_moves_accepted_worse_total")
	return serverCounters{
		stats:        r.srv.Stats(),
		epochLatency: r.reg.Histogram("tsajs_coordinator_epoch_latency_seconds", "", obs.DefaultLatencyEdges).Snapshot(),
		solve:        r.reg.Histogram("tsajs_coordinator_solve_seconds", "", obs.DefaultLatencyEdges).Snapshot(),
		evals:        counter("tsajs_solver_evaluations_total"),
		accepted:     better + worse,
		priced:       better + worse + counter("tsajs_solver_moves_rejected_total"),
	}
}

// settleFrames waits until the coordinator has counted the binary frames
// of every request sent so far (its writer goroutines count a response
// only after the socket write returns, which can trail the client's
// receipt), or until a second has passed.
func (r *rig) settleFrames() {
	want := 2 * uint64(r.sent)
	deadline := time.Now().Add(time.Second)
	for r.srv.Stats().FramesBinary < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// wireListener wraps the coordinator's listener to count socket reads and
// writes on every accepted connection.
type wireListener struct {
	net.Listener
	reads  atomic.Uint64
	writes atomic.Uint64
}

func (l *wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, l: l}, nil
}

type wireConn struct {
	net.Conn
	l *wireListener
}

func (c *wireConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}
