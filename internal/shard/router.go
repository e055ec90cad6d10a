package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/obs"
)

// RouterConfig parametrizes a cluster router.
type RouterConfig struct {
	// Client configures the embedded shard fan-out the router forwards
	// through (addresses, layout, assignment, per-shard resilience).
	Client ClientConfig
	// Limits are the wire limits the router serves every connection under,
	// the coordinator's own: idle read deadline, request size cap and
	// connection cap.
	cran.Limits
	// Metrics, when non-nil, receives the router's tsajs_router_* family
	// alongside the embedded client's tsajs_shard_* rollup.
	Metrics *obs.Registry
}

// Router exposes a K-shard coordinator cluster behind one endpoint for
// devices that do not know about shards: it speaks both wire codecs through
// the coordinator's connection layer (cran.Listener), resolves each
// request's cell and forwards it to the owning shard over the fan-out
// client (typically binary, multiplexed). Health probes fan out to every
// shard and return the merged cluster view.
type Router struct {
	cfg RouterConfig
	lis *cran.Listener
	cli *Client

	requests *obs.Counter
	latency  *obs.Histogram
	inflight *obs.Gauge

	// ctx bounds every forward; Close cancels it and waits for fwd.
	// slots holds one token per forward in flight.
	ctx    context.Context
	cancel context.CancelFunc
	fwd    sync.WaitGroup
	slots  chan struct{}
}

// forwardTimeout bounds one forwarded exchange through the fan-out,
// including per-shard retries.
const forwardTimeout = 30 * time.Second

// maxForwards bounds the forwards in flight across the router. Past it a
// connection's reader waits for a slot, so a client flooding binary frames
// meets TCP backpressure instead of piling up goroutines.
const maxForwards = 1024

// NewRouter starts a router listening on addr.
func NewRouter(addr string, cfg RouterConfig) (*Router, error) {
	if err := cfg.Limits.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.Client.Metrics == nil {
		cfg.Client.Metrics = reg
	}
	cli, err := NewClient(cfg.Client)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = cli.Close()
		return nil, fmt.Errorf("shard: router listen: %w", err)
	}
	r := &Router{
		cfg: cfg,
		cli: cli,
		requests: reg.Counter("tsajs_router_requests_total",
			"Requests forwarded through the router."),
		latency: reg.Histogram("tsajs_router_latency_seconds",
			"Receive-to-answer latency per request through the router.", obs.DefaultLatencyEdges),
		inflight: reg.Gauge("tsajs_router_inflight_requests",
			"Requests currently being forwarded."),
		slots: make(chan struct{}, maxForwards),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.lis = cran.Serve(ln, cfg.Limits, reg, "router", r.handle)
	return r, nil
}

// Addr returns the router's listening address.
func (r *Router) Addr() net.Addr { return r.lis.Addr() }

// Client returns the embedded shard fan-out (for handoff and rollup reads).
func (r *Router) Client() *Client { return r.cli }

// Close stops the listener, drops every connection, abandons the forwards in
// flight, and closes the fan-out. Idempotent.
func (r *Router) Close() error {
	r.cancel()
	err := r.lis.Close()
	r.fwd.Wait()
	if cerr := r.cli.Close(); err == nil {
		err = cerr
	}
	return err
}

// handle is the router's cran.Handler. It forwards off the connection's
// reader, so a binary connection keeps many requests in flight; a JSON
// connection still waits for each answer before reading its next line.
func (r *Router) handle(req cran.OffloadRequest, a cran.Answer) {
	select {
	case r.slots <- struct{}{}:
	case <-r.ctx.Done():
		a.Send(cran.OffloadResponse{Version: cran.ProtocolVersion, UserID: req.UserID, Error: "router shutting down", Code: cran.CodeShutdown})
		return
	}
	r.fwd.Add(1)
	go func() {
		defer func() {
			<-r.slots
			r.fwd.Done()
		}()
		a.Send(r.forward(req))
	}()
}

// forward routes one request: health probes fan out to every shard and
// merge, offload requests go to the owning shard. A transport-level
// forwarding failure is reported to the device as a typed rejection
// (preserving the shard's backpressure code when one caused it).
func (r *Router) forward(req cran.OffloadRequest) cran.OffloadResponse {
	r.requests.Inc()
	r.inflight.Add(1)
	start := time.Now()
	defer func() {
		r.latency.Observe(time.Since(start).Seconds())
		r.inflight.Add(-1)
	}()
	ctx, cancel := context.WithTimeout(r.ctx, forwardTimeout)
	defer cancel()
	if req.Type == cran.TypeHealth {
		h, err := r.cli.Health(ctx)
		if err != nil {
			return cran.OffloadResponse{Version: cran.ProtocolVersion, UserID: req.UserID, Error: "cluster health: " + err.Error()}
		}
		return cran.OffloadResponse{Version: cran.ProtocolVersion, UserID: req.UserID, Health: &h}
	}
	resp, err := r.cli.Offload(ctx, req)
	if err != nil && resp.Error == "" {
		// The shard was unreachable (or retries exhausted on backpressure):
		// synthesize the typed rejection the device would have seen talking
		// to its shard directly.
		resp = cran.OffloadResponse{
			Version: cran.ProtocolVersion,
			UserID:  req.UserID,
			Error:   err.Error(),
			Code:    forwardCode(err),
		}
	}
	return resp
}

// forwardCode maps a fan-out error back to the wire code it carries.
func forwardCode(err error) string {
	switch {
	case errors.Is(err, cran.ErrQueueFull):
		return cran.CodeQueueFull
	case errors.Is(err, cran.ErrAdmissionRejected):
		return cran.CodeAdmission
	case errors.Is(err, cran.ErrDeadlineExceeded):
		return cran.CodeExpired
	case errors.Is(err, cran.ErrWrongShard):
		return cran.CodeWrongShard
	default:
		return ""
	}
}
