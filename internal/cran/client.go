package cran

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/task"
)

// ErrClientClosed is returned by operations on a closed Client.
var ErrClientClosed = errors.New("cran: client closed")

// ErrCircuitOpen is returned (or degraded over, see
// ResilienceConfig.DegradeLocal) when the client's circuit breaker is open:
// enough consecutive transport failures occurred that the coordinator is
// presumed down, and calls fail fast instead of burning their deadline on
// doomed dials.
var ErrCircuitOpen = errors.New("cran: circuit breaker open, coordinator presumed down")

// Wire protocols a Client can speak, for ResilienceConfig.Protocol.
const (
	// ProtoJSON is the historical newline-delimited JSON protocol: one
	// request per round-trip, responses in order.
	ProtoJSON = "json"
	// ProtoBinary is the wirev2 framed binary protocol: requests are
	// multiplexed over one connection by 64-bit request ID, so concurrent
	// Offload calls share the connection and responses complete out of
	// order (see wirev2.go and DESIGN.md §13).
	ProtoBinary = "binary"
)

// ResilienceConfig tunes the client-side fault tolerance: retries with
// exponential backoff and jitter, automatic reconnection, a circuit
// breaker, and graceful degradation to a local-execution decision when the
// coordinator cannot answer. The zero value enables conservative retrying
// without degradation; see the field defaults.
type ResilienceConfig struct {
	// Protocol selects the wire protocol: ProtoJSON (the default when
	// empty) or ProtoBinary. Retry, backoff, breaker, and degradation
	// semantics are identical across protocols; ProtoBinary additionally
	// multiplexes concurrent calls over one connection.
	Protocol string
	// MaxAttempts bounds transport attempts per Offload call (each
	// attempt redials if needed). Zero defaults to 3.
	MaxAttempts int
	// BackoffBase is the pre-retry wait before attempt 2; subsequent
	// attempts double it up to BackoffMax. The actual wait is jittered
	// uniformly over [base/2, base). Zero defaults are 25ms and 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold opens the circuit after that many consecutive
	// transport failures; while open, calls skip the network entirely
	// until BreakerCooldown elapses, then a single probe is allowed
	// through and every other call keeps failing fast until it settles.
	// Zero defaults to 5 failures / 2s cooldown; a negative threshold
	// disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DegradeLocal turns transport failure into graceful degradation:
	// instead of an error, Offload returns a valid local-execution
	// decision (Offload=false, Degraded=true) with the device's Eq. 1
	// cost, so the device never stalls on a dead coordinator.
	DegradeLocal bool
	// FLocalHz and Kappa are the device defaults used to price degraded
	// local decisions when the request leaves them zero. Defaults mirror
	// the paper's device: 1 GHz, κ=5e-27.
	FLocalHz float64
	Kappa    float64
	// DialTimeout bounds each (re)connection attempt, further clipped by
	// the call context. Zero defaults to 5s.
	DialTimeout time.Duration
	// Seed drives the backoff jitter. Zero defaults to 1.
	Seed uint64
	// Dialer overrides the transport dial, letting tests inject chaos
	// wrappers or outage simulations. Nil uses TCP.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// Metrics, when non-nil, receives the client's resilience telemetry:
	// attempts, retries, redials, transport failures, breaker fast-fails,
	// and graceful degradations (obs.NewClientMetrics builds one backed by
	// a registry). Every update is a single atomic increment.
	Metrics *obs.ClientMetrics
}

func (rc ResilienceConfig) withDefaults() ResilienceConfig {
	if rc.MaxAttempts == 0 {
		rc.MaxAttempts = 3
	}
	if rc.BackoffBase == 0 {
		rc.BackoffBase = 25 * time.Millisecond
	}
	if rc.BackoffMax == 0 {
		rc.BackoffMax = time.Second
	}
	if rc.BreakerThreshold == 0 {
		rc.BreakerThreshold = 5
	}
	if rc.BreakerCooldown == 0 {
		rc.BreakerCooldown = 2 * time.Second
	}
	if rc.FLocalHz == 0 {
		rc.FLocalHz = 1e9 // paper default f_u^local = 1 GHz
	}
	if rc.Kappa == 0 {
		rc.Kappa = 5e-27 // paper default κ
	}
	if rc.DialTimeout == 0 {
		rc.DialTimeout = 5 * time.Second
	}
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	return rc
}

// Validate checks the configuration domain.
func (rc ResilienceConfig) Validate() error {
	switch {
	case rc.MaxAttempts < 0:
		return fmt.Errorf("cran: max attempts must be non-negative, got %d", rc.MaxAttempts)
	case rc.BackoffBase < 0 || rc.BackoffMax < 0:
		return fmt.Errorf("cran: backoff durations must be non-negative, got base=%s max=%s", rc.BackoffBase, rc.BackoffMax)
	case rc.BreakerCooldown < 0:
		return fmt.Errorf("cran: breaker cooldown must be non-negative, got %s", rc.BreakerCooldown)
	case rc.FLocalHz < 0:
		return fmt.Errorf("cran: local CPU frequency must be non-negative, got %g", rc.FLocalHz)
	case rc.Kappa < 0:
		return fmt.Errorf("cran: kappa must be non-negative, got %g", rc.Kappa)
	case rc.DialTimeout < 0:
		return fmt.Errorf("cran: dial timeout must be non-negative, got %s", rc.DialTimeout)
	}
	switch rc.Protocol {
	case "", ProtoJSON, ProtoBinary:
	default:
		return fmt.Errorf("cran: unknown protocol %q (want %q or %q)", rc.Protocol, ProtoJSON, ProtoBinary)
	}
	return nil
}

// Client is a mobile-device-side connection to a coordinator.
//
// One retry, breaker and degradation loop (Offload) runs over one
// connection layer for both codecs: each call gets a request ID and a
// demultiplexing goroutine routes responses back by ID (client_mux.go).
// With the default JSON protocol, exchanges are serialized (one in flight
// per connection, matching the server's in-order response guarantee). With
// ProtoBinary, concurrent Offload calls multiplex over one connection, so
// one Client can hold many requests in flight. Either way a Client is safe
// for concurrent use.
//
// The client reconnects automatically: a transport failure drops the
// connection and the next attempt redials, so a coordinator restart is
// invisible to callers beyond one retried exchange.
type Client struct {
	addr string
	rc   ResilienceConfig

	// mu guards the breaker and jitter state. It is held only briefly,
	// never across a network wait or a backoff sleep.
	mu      sync.Mutex
	jitter  *simrand.Source
	fails   int // consecutive transport failures (breaker input)
	openAt  time.Time
	probing bool // a half-open probe is in flight

	// turn, on a JSON client, holds its one exchange in flight (see
	// exchange); nil on a binary client.
	turn chan struct{}

	connMu sync.Mutex // guards mux against concurrent Close
	mux    *clientMux
	dialMu sync.Mutex // serializes (re)dials

	closeOnce sync.Once
	closedCh  chan struct{}
}

// binary reports whether this client speaks the wirev2 binary protocol.
func (c *Client) binary() bool { return c.rc.Protocol == ProtoBinary }

// NewClient returns a client for the coordinator at addr without dialing.
// The first Offload (or Health) call connects lazily, so constructing a
// client never fails on an unreachable coordinator — with DegradeLocal set
// the device simply runs locally until the coordinator appears.
func NewClient(addr string, rc ResilienceConfig) (*Client, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	rc = rc.withDefaults()
	c := &Client{
		addr:     addr,
		rc:       rc,
		jitter:   simrand.New(rc.Seed),
		closedCh: make(chan struct{}),
	}
	if !c.binary() {
		c.turn = make(chan struct{}, 1)
	}
	return c, nil
}

// DialResilient returns a client with the full fault-tolerance stack on:
// retries, reconnection, circuit breaking, and graceful degradation to
// local execution. It does not require the coordinator to be reachable.
func DialResilient(addr string, rc ResilienceConfig) (*Client, error) {
	rc.DegradeLocal = true
	return NewClient(addr, rc)
}

// Dial connects to a coordinator at addr.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialBinary connects eagerly over the wirev2 binary protocol with Dial's
// strict semantics. Unlike a JSON client, the returned client multiplexes
// concurrent Offload calls over its one connection.
func DialBinary(addr string) (*Client, error) {
	return dialStrict(addr, ResilienceConfig{Protocol: ProtoBinary})
}

// DialTimeout connects with a dial timeout. Unlike NewClient it dials
// eagerly and fails fast when the coordinator is unreachable, and the
// returned client performs single attempts without retry or degradation —
// the historical strict behavior.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return dialStrict(addr, ResilienceConfig{DialTimeout: timeout})
}

// dialStrict builds a client with single attempts, no breaker and no
// degradation, and dials it within the dial timeout.
func dialStrict(addr string, rc ResilienceConfig) (*Client, error) {
	rc.MaxAttempts = 1
	rc.BreakerThreshold = -1
	c, err := NewClient(addr, rc)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.rc.DialTimeout)
	defer cancel()
	if _, err := c.ensureMux(ctx); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// Close tears down the connection. It is idempotent and safe to call
// concurrently with in-flight Offload calls, which fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		c.connMu.Lock()
		if c.mux != nil {
			c.mux.close(ErrClientClosed)
			c.mux = nil
		}
		c.connMu.Unlock()
	})
	return nil
}

func (c *Client) isClosed() bool {
	select {
	case <-c.closedCh:
		return true
	default:
		return false
	}
}

// Offload submits one task and waits for the coordinator's decision. The
// context bounds the whole exchange including retries; a response whose
// Error field is set is returned as a typed Go error (see
// OffloadResponse.Err). Rejections are answers, not faults — except
// backpressure codes (queue full, admission, deadline expiry), which mean
// the coordinator is alive but overloaded: those are retried with backoff
// like transport failures, but never counted against the circuit breaker.
//
// When the configuration enables DegradeLocal and every attempt fails on
// transport (coordinator down, connection reset, deadline pressure), the
// call degrades gracefully: it returns a local-execution decision priced
// with the device's Eq. 1 cost and Degraded=true, with a nil error.
func (c *Client) Offload(ctx context.Context, req OffloadRequest) (OffloadResponse, error) {
	req.Version = ProtocolVersion
	var lastErr error
	for attempt := 0; attempt < c.rc.MaxAttempts; attempt++ {
		if c.isClosed() {
			lastErr = ErrClientClosed
			break
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("cran: %w", err)
			}
			break
		}
		c.mu.Lock()
		admit, probe := c.breakerAdmit()
		var delay time.Duration
		if admit && attempt > 0 {
			delay = c.backoffDelay(attempt)
		}
		c.mu.Unlock()
		if !admit {
			lastErr = ErrCircuitOpen
			c.countMetric(func(m *obs.ClientMetrics) { m.BreakerFastFails.Inc() })
			break
		}
		if attempt > 0 && !c.sleepDelay(ctx, delay) {
			if probe {
				c.mu.Lock()
				c.probing = false
				c.mu.Unlock()
			}
			break // context expired or client closed during backoff
		}
		c.countMetric(func(m *obs.ClientMetrics) {
			m.Attempts.Inc()
			if attempt > 0 {
				m.Retries.Inc()
			}
		})
		resp, err := c.exchange(ctx, &req)
		c.settle(probe, err)
		if err == nil {
			if werr := resp.Err(); werr != nil {
				if IsBackpressureCode(resp.Code) {
					// Backpressure (queue full, admission, expiry) is the
					// coordinator alive and shedding: retry with backoff,
					// and never count it against the breaker — tripping
					// would turn transient overload into minutes of
					// fast-fails.
					lastErr = werr
					continue
				}
				return resp, werr
			}
			return resp, nil
		}
		lastErr = err
	}

	if c.rc.DegradeLocal && !c.isClosed() {
		if resp, err := c.localDecision(req); err == nil {
			c.countMetric(func(m *obs.ClientMetrics) { m.Degraded.Inc() })
			return resp, nil
		}
	}
	if lastErr == nil {
		lastErr = errors.New("cran: no attempts configured")
	}
	return OffloadResponse{}, lastErr
}

// Health asks the coordinator for its health payload. Health performs a
// single attempt and never degrades: its whole point is to observe the
// coordinator, so a transport failure is the answer.
func (c *Client) Health(ctx context.Context) (Health, error) {
	if c.isClosed() {
		return Health{}, ErrClientClosed
	}
	resp, err := c.exchange(ctx, &OffloadRequest{Version: ProtocolVersion, Type: TypeHealth})
	c.settle(false, err)
	if err != nil {
		return Health{}, err
	}
	if resp.Error != "" {
		return Health{}, fmt.Errorf("cran: coordinator rejected health probe: %s", resp.Error)
	}
	if resp.Health == nil {
		return Health{}, errors.New("cran: coordinator returned no health payload")
	}
	return *resp.Health, nil
}

// dialConn performs one transport dial with the configured dialer, bounded
// by the dial timeout and the call context.
func (c *Client) dialConn(ctx context.Context) (net.Conn, error) {
	dial := c.rc.Dialer
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, c.rc.DialTimeout)
	defer cancel()
	conn, err := dial(dctx, c.addr)
	if err != nil {
		return nil, fmt.Errorf("cran: dial %s: %w", c.addr, err)
	}
	return conn, nil
}

// breakerAdmit reports whether an attempt may use the network. A closed
// circuit admits everyone; an open one admits no one until the cooldown
// has elapsed, and then exactly one probe (half-open) until that probe
// settles. Callers hold c.mu.
func (c *Client) breakerAdmit() (admit, probe bool) {
	if c.rc.BreakerThreshold <= 0 || c.fails < c.rc.BreakerThreshold {
		return true, false
	}
	if c.probing || time.Now().Before(c.openAt.Add(c.rc.BreakerCooldown)) {
		return false, false
	}
	c.probing = true
	return true, true
}

// settle records one exchange's transport outcome: an answer closes the
// circuit, a failure counts toward (or re-opens) it. It also ends the
// half-open probe the exchange carried, if any.
func (c *Client) settle(probe bool, err error) {
	c.mu.Lock()
	if probe {
		c.probing = false
	}
	if err == nil {
		c.fails = 0
	} else {
		c.fails++
		if c.rc.BreakerThreshold > 0 && c.fails >= c.rc.BreakerThreshold {
			c.openAt = time.Now()
		}
	}
	c.mu.Unlock()
	if err != nil {
		c.countMetric(func(m *obs.ClientMetrics) { m.TransportFailures.Inc() })
	}
}

// countMetric applies fn to the configured metrics sink, if any.
func (c *Client) countMetric(fn func(*obs.ClientMetrics)) {
	if c.rc.Metrics != nil {
		fn(c.rc.Metrics)
	}
}

// backoffDelay computes the jittered exponential delay before the given
// retry attempt. Callers hold c.mu (the jitter source is not
// concurrency-safe).
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.rc.BackoffBase << (attempt - 1)
	if d > c.rc.BackoffMax || d <= 0 {
		d = c.rc.BackoffMax
	}
	// Full jitter over [d/2, d) decorrelates retry storms across devices.
	return d/2 + time.Duration(c.jitter.Float64()*float64(d/2))
}

// sleepDelay waits d, aborting early on context expiry or Close, and
// reports whether the caller should proceed.
func (c *Client) sleepDelay(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	case <-c.closedCh:
		return false
	}
}

// localDecision synthesizes the graceful-degradation answer: execute
// locally at the device's own cost (Eq. 1). The utility is zero because
// J_u measures improvement over local execution (Eq. 10).
func (c *Client) localDecision(req OffloadRequest) (OffloadResponse, error) {
	f := req.FLocalHz
	if f == 0 {
		f = c.rc.FLocalHz
	}
	k := req.Kappa
	if k == 0 {
		k = c.rc.Kappa
	}
	lc, err := task.Local(req.Task, f, k)
	if err != nil {
		return OffloadResponse{}, err
	}
	return OffloadResponse{
		Version:         ProtocolVersion,
		UserID:          req.UserID,
		Offload:         false,
		ExpectedDelayS:  lc.TimeS,
		ExpectedEnergyJ: lc.EnergyJ,
		Utility:         0,
		Degraded:        true,
	}, nil
}
