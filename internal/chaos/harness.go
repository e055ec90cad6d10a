// Package chaos is the end-to-end overload harness: it boots a real
// pipelined coordinator with fault injection, drives it over TCP at a
// multiple of its measured sustainable rate, and checks the
// overload-resilience invariants — every request answered exactly once, no
// deadline-expired full solves, a goodput floor under overload, and
// recovery once the fault window ends.
//
// The harness is the executable form of the serving path's resilience
// contract: unit tests pin each mechanism (admission, expiry, brownout,
// backpressure) in isolation; Run exercises them together against real
// sockets, real queue pressure, and an injected slow solver.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/task"
)

// Config parametrizes one harness run's windows and fault.
type Config struct {
	// Calibrate is the closed-loop window used to measure the sustainable
	// rate before overload begins. Zero defaults to 500ms.
	Calibrate time.Duration
	// Drive is the overload measurement window. Zero defaults to 2s.
	Drive time.Duration
	// Deadline is the coordinator's DefaultDeadline during the overload
	// phase. Zero defaults to 250ms.
	Deadline time.Duration
	// FaultDelay is the delay the injected slow-solver fault adds to every
	// solve in the fault window. Zero defaults to 40ms.
	FaultDelay time.Duration
}

// The fixed parameters of every harness run.
const (
	// servers and channels size the coordinated network: small enough
	// that epochs solve in milliseconds on one core.
	servers  = 4
	channels = 2
	// seed drives the coordinator and the fault plan.
	seed = 1
	// conns is the number of concurrent client connections.
	conns = 4
	// workers and queueDepth configure the overloaded coordinator's
	// pipeline: a single solver makes queue pressure, and so brownout
	// and expiry, deterministic to provoke. Brownout is always on.
	workers    = 1
	queueDepth = 8
	// ttsaBudget is the full-tier evaluation budget.
	ttsaBudget = 1500
	// rateMultiplier scales the calibrated rate into the offered overload
	// rate: the harness's headline "2× sustainable".
	rateMultiplier = 2
	// faultFraction is the fraction of the drive window under fault,
	// starting at t=0: faults in the first half, recovery in the second.
	faultFraction = 0.5
	// goodputFloor is the minimum fraction of issued requests that must
	// receive a scheduled decision (any tier) over the whole drive.
	goodputFloor = 0.2
	// recoveryMargin is the slack allowed when requiring recovery-phase
	// goodput to be at least fault-phase goodput.
	recoveryMargin = 0.05
)

func (c Config) withDefaults() Config {
	if c.Calibrate == 0 {
		c.Calibrate = 500 * time.Millisecond
	}
	if c.Drive == 0 {
		c.Drive = 2 * time.Second
	}
	if c.Deadline == 0 {
		c.Deadline = 250 * time.Millisecond
	}
	if c.FaultDelay == 0 {
		c.FaultDelay = 40 * time.Millisecond
	}
	return c
}

// Report is the harness outcome: outcome counts, phase goodputs, the
// coordinator's final counters, and any invariant violations (empty means
// the run passed).
type Report struct {
	CalibratedRPS float64 `json:"calibratedRPS"`
	OfferedRPS    float64 `json:"offeredRPS"`

	Issued    int `json:"issued"`
	Answered  int `json:"answered"`
	Full      int `json:"full"`
	Truncated int `json:"truncated"`
	Cheap     int `json:"cheap"`
	Expired   int `json:"expired"`
	Shed      int `json:"shed"`
	Errors    int `json:"errors"`

	GoodputFraction float64 `json:"goodputFraction"`
	FaultGoodput    float64 `json:"faultGoodput"`
	RecoveryGoodput float64 `json:"recoveryGoodput"`

	Stats      cran.Stats `json:"stats"`
	Violations []string   `json:"violations"`
	// ErrorSample holds up to a handful of distinct transport error
	// strings, for diagnosing a failed answered-exactly-once invariant.
	ErrorSample []string `json:"errorSample,omitempty"`
}

// outcome classes for one driven request.
const (
	classFull = iota
	classTruncated
	classCheap
	classExpired
	classShed
	classError
)

type outcome struct {
	at    time.Duration // offset of the request start into the drive window
	class int
}

// Run executes the harness: calibrate, overload with faults, verify.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()

	calibrated, err := calibrate(cfg)
	if err != nil {
		return Report{}, fmt.Errorf("chaos: calibration: %w", err)
	}
	if calibrated <= 0 {
		return Report{}, errors.New("chaos: calibration measured zero sustainable throughput")
	}

	rep, err := overload(cfg, calibrated)
	if err != nil {
		return Report{}, fmt.Errorf("chaos: overload drive: %w", err)
	}
	return rep, nil
}

func serverConfig() cran.ServerConfig {
	params := scenario.DefaultParams()
	params.NumServers = servers
	params.NumChannels = channels
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = ttsaBudget
	return cran.ServerConfig{
		Params:      params,
		BatchWindow: 5 * time.Millisecond,
		TTSA:        &ttsaCfg,
		Seed:        seed,
		Workers:     workers,
		QueueDepth:  queueDepth,
	}
}

// driveRequest builds the deterministic request for connection c, index i.
func driveRequest(c, i int) cran.OffloadRequest {
	return cran.OffloadRequest{
		UserID: fmt.Sprintf("chaos-%d-%d", c, i),
		Pos: geom.Point{
			X: 0.4*math.Cos(float64(c)+0.1*float64(i)) + 0.1,
			Y: 0.4 * math.Sin(float64(c)+0.1*float64(i)),
		},
		Task: task.Task{DataBits: 420 * 8 * 1024, WorkCycles: 1000e6},
	}
}

// calibrate measures the coordinator's closed-loop sustainable rate with no
// faults, no deadlines, and no brownout: conns clients issuing back to back
// for the calibration window.
func calibrate(cfg Config) (float64, error) {
	srv, err := cran.NewServer("127.0.0.1:0", serverConfig())
	if err != nil {
		return 0, err
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Calibrate+30*time.Second)
	defer cancel()
	deadline := time.Now().Add(cfg.Calibrate)
	counts := make([]int, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := cran.NewClient(srv.Addr().String(), cran.ResilienceConfig{
				MaxAttempts: 1, BreakerThreshold: -1,
			})
			if err != nil {
				return
			}
			defer cli.Close()
			for i := 0; time.Now().Before(deadline); i++ {
				if _, err := cli.Offload(ctx, driveRequest(c, i)); err == nil {
					counts[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / cfg.Calibrate.Seconds(), nil
}

// overload drives a fault-injected coordinator at the offered overload rate
// and classifies every request, then checks the invariants.
func overload(cfg Config, calibrated float64) (Report, error) {
	scfg := serverConfig()
	scfg.DefaultDeadline = cfg.Deadline
	scfg.Brownout.Enabled = true
	// The fault window opens at server boot; driving starts immediately
	// after, so the two are within NewServer's setup latency of each other.
	start := time.Now()
	scfg.SolverChaos = &faults.SolverChaos{
		Seed:      seed,
		DelayProb: 1,
		Delay:     cfg.FaultDelay,
		Start:     start,
		Window:    time.Duration(faultFraction * float64(cfg.Drive)),
	}
	srv, err := cran.NewServer("127.0.0.1:0", scfg)
	if err != nil {
		return Report{}, err
	}
	defer srv.Close()

	offered := calibrated * rateMultiplier
	interval := time.Duration(float64(time.Second) / offered)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Drive+30*time.Second)
	defer cancel()

	// Open-loop pacing: one goroutine per request, each on its own
	// connection. A request stuck behind the injected slow solver must not
	// throttle the offered load — the whole point is that arrivals keep
	// coming while the coordinator is degraded, forcing the admission,
	// expiry, and brownout paths to carry the overload.
	var (
		mu     sync.Mutex
		outs   []outcome
		errSet = map[string]struct{}{}
		wg     sync.WaitGroup
	)
	record := func(at time.Duration, class int, err error) {
		mu.Lock()
		outs = append(outs, outcome{at, class})
		if class == classError && err != nil && len(errSet) < 5 {
			errSet[err.Error()] = struct{}{}
		}
		mu.Unlock()
	}
	addr := srv.Addr().String()
	next := start
	for i := 0; ; i++ {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		at := time.Since(start)
		if at >= cfg.Drive {
			break
		}
		next = next.Add(interval)
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			// MaxAttempts 2 absorbs one transient transport blip per
			// request; a shed retries once with backoff (backpressure
			// semantics) and then surfaces as its typed error.
			cli, err := cran.NewClient(addr, cran.ResilienceConfig{
				MaxAttempts: 2, BreakerThreshold: -1,
			})
			if err != nil {
				record(at, classError, err)
				return
			}
			defer cli.Close()
			resp, err := cli.Offload(ctx, driveRequest(i%conns, i))
			record(at, classify(resp, err), err)
		}(i, at)
	}
	wg.Wait()

	stats := srv.Stats()
	rep := verdict(cfg, calibrated, offered, outs, stats)
	for msg := range errSet {
		rep.ErrorSample = append(rep.ErrorSample, msg)
	}
	return rep, nil
}

func classify(resp cran.OffloadResponse, err error) int {
	switch {
	case err == nil && resp.Tier == cran.TierTruncated:
		return classTruncated
	case err == nil && resp.Tier == cran.TierCheap:
		return classCheap
	case err == nil:
		return classFull
	case errors.Is(err, cran.ErrDeadlineExceeded):
		return classExpired
	case errors.Is(err, cran.ErrQueueFull), errors.Is(err, cran.ErrAdmissionRejected):
		return classShed
	default:
		return classError
	}
}

// verdict aggregates outcomes and evaluates the invariants.
func verdict(cfg Config, calibrated, offered float64, outs []outcome, stats cran.Stats) Report {
	rep := Report{CalibratedRPS: calibrated, OfferedRPS: offered, Stats: stats}
	faultEnd := time.Duration(faultFraction * float64(cfg.Drive))
	// Phase buckets leave a margin around the fault edge: requests issued
	// just before it can legitimately resolve on either side.
	faultCut := faultEnd - faultEnd/10
	recoveryCut := faultEnd + (cfg.Drive-faultEnd)*2/5
	var faultGood, faultAll, recGood, recAll int
	for _, o := range outs {
		rep.Issued++
		switch o.class {
		case classFull:
			rep.Full++
		case classTruncated:
			rep.Truncated++
		case classCheap:
			rep.Cheap++
		case classExpired:
			rep.Expired++
		case classShed:
			rep.Shed++
		case classError:
			rep.Errors++
		}
		if o.class != classError {
			rep.Answered++
		}
		good := o.class == classFull || o.class == classTruncated || o.class == classCheap
		if o.at < faultCut {
			faultAll++
			if good {
				faultGood++
			}
		} else if o.at >= recoveryCut {
			recAll++
			if good {
				recGood++
			}
		}
	}
	scheduled := rep.Full + rep.Truncated + rep.Cheap
	if rep.Issued > 0 {
		rep.GoodputFraction = float64(scheduled) / float64(rep.Issued)
	}
	if faultAll > 0 {
		rep.FaultGoodput = float64(faultGood) / float64(faultAll)
	}
	if recAll > 0 {
		rep.RecoveryGoodput = float64(recGood) / float64(recAll)
	}

	fail := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	// Invariant 1: every issued request was answered exactly once — each
	// Offload call returned exactly one response or typed error; transport
	// errors would surface as classError.
	if rep.Answered != rep.Issued {
		fail("answered %d of %d issued requests (%d transport errors)", rep.Answered, rep.Issued, rep.Errors)
	}
	// Invariant 2: no solver worker ran a full-quality solve for an
	// already-expired request.
	if stats.FullSolvesExpired != 0 {
		fail("full-solve expiry tripwire fired %d times, want 0", stats.FullSolvesExpired)
	}
	// Invariant 3: goodput floor under overload — shedding and expiry are
	// allowed, collapse is not.
	if rep.GoodputFraction < goodputFloor {
		fail("goodput %.3f below floor %.3f", rep.GoodputFraction, goodputFloor)
	}
	// Invariant 4: the system recovers once the fault window closes —
	// goodput after recovery must not be materially below goodput under
	// fault.
	if recAll > 0 && faultAll > 0 && rep.RecoveryGoodput+recoveryMargin < rep.FaultGoodput {
		fail("recovery goodput %.3f below fault-phase goodput %.3f", rep.RecoveryGoodput, rep.FaultGoodput)
	}
	// Bookkeeping cross-check: the coordinator's own expiry counter must
	// account for every client-observed expiry.
	if uint64(rep.Expired) > stats.ShedExpired {
		fail("clients saw %d expiries but the coordinator counted %d", rep.Expired, stats.ShedExpired)
	}
	return rep
}
