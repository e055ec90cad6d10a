package shard

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/obs"
)

// ClientConfig parametrizes a shard-aware client.
type ClientConfig struct {
	// Addrs are the shard coordinators' addresses; index i is shard i, so
	// len(Addrs) is the cluster size K.
	Addrs []string
	// Sites are the cell sites of the network layout, in cell-index order —
	// the same geom.HexLayout the coordinators were built with. Requests are
	// routed by the nearest site to their position, exactly the cell the
	// coordinator itself resolves.
	Sites []geom.Point
	// Assignment is the explicit cell→shard table, len == len(Sites). Nil
	// derives it from the consistent-hash ring over len(Addrs) shards — the
	// default every cluster component agrees on.
	Assignment []int
	// Replicas is the ring vnode count used when Assignment is derived;
	// <= 0 selects DefaultReplicas.
	Replicas int
	// Resilience is the per-shard connection template: each shard gets its
	// own cran client built from it, so retry, backoff, and circuit-breaker
	// state are per shard — one dead shard trips only its own breaker while
	// the rest of the cluster keeps serving. The backoff jitter seed is
	// decorrelated per shard. Protocol selects the wire codec for the whole
	// fan-out (binary multiplexes all in-flight requests to a shard over one
	// connection).
	Resilience cran.ResilienceConfig
	// Metrics, when non-nil, receives the rollup family (tsajs_shard_*:
	// requests by shard, handoffs, latency, inflight). Nil uses a private
	// registry reachable via Client.Metrics.
	Metrics *obs.Registry
}

// Client routes offload requests to the coordinator shard owning the
// caller's cell. It is safe for concurrent use: with the binary protocol the
// per-shard connections multiplex all concurrent calls, with JSON they
// serialize per shard. Cross-shard handoff — the same user routed to a
// different shard than last time because mobility carried it over a cell
// boundary — is detected here and counted.
type Client struct {
	sites      []geom.Point
	assignment []int
	shards     []*cran.Client
	m          *rollup
	reg        *obs.Registry

	// last tracks each user's previous shard (UserID → int) for handoff
	// detection. Entries live as long as the client; the coordinator itself
	// keeps no per-user state.
	last sync.Map
}

// NewClient builds the per-shard connections (lazily dialed) and the
// routing table.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("shard: client needs at least one shard address")
	}
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("shard: client needs the cell site layout")
	}
	assignment := cfg.Assignment
	if assignment == nil {
		ring, err := NewRing(len(cfg.Addrs), cfg.Replicas)
		if err != nil {
			return nil, err
		}
		assignment = ring.Assignment(len(cfg.Sites))
	}
	if len(assignment) != len(cfg.Sites) {
		return nil, fmt.Errorf("shard: assignment covers %d cells, layout has %d", len(assignment), len(cfg.Sites))
	}
	for c, s := range assignment {
		if s < 0 || s >= len(cfg.Addrs) {
			return nil, fmt.Errorf("shard: cell %d assigned to shard %d outside [0,%d)", c, s, len(cfg.Addrs))
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Client{
		sites:      cfg.Sites,
		assignment: assignment,
		shards:     make([]*cran.Client, len(cfg.Addrs)),
		m:          newRollup(reg, "tsajs_shard", len(cfg.Addrs)),
		reg:        reg,
	}
	for i, addr := range cfg.Addrs {
		rc := cfg.Resilience
		if rc.Seed == 0 {
			rc.Seed = 1
		}
		// Decorrelate backoff jitter across shards: a cluster-wide brownout
		// should not synchronize every shard's retries.
		rc.Seed += uint64(i) * 0x9e3779b97f4a7c15
		cc, err := cran.NewClient(addr, rc)
		if err != nil {
			for _, prev := range c.shards[:i] {
				_ = prev.Close()
			}
			return nil, err
		}
		c.shards[i] = cc
	}
	return c, nil
}

// Shards returns the cluster size K.
func (c *Client) Shards() int { return len(c.shards) }

// Assignment returns the cell→shard table the client routes by. The caller
// must not mutate it.
func (c *Client) Assignment() []int { return c.assignment }

// Metrics returns the registry holding the tsajs_shard_* rollup.
func (c *Client) Metrics() *obs.Registry { return c.reg }

// Route resolves a position to its serving cell and owning shard.
func (c *Client) Route(pos geom.Point) (cell, shard int) {
	cell, _ = geom.Nearest(pos, c.sites)
	return cell, c.assignment[cell]
}

// Offload routes the request to the shard owning its cell and returns that
// coordinator's decision. The per-shard client's full resilience stack
// (retry, breaker, degradation) applies; handoffs are detected by comparing
// against the same user's previous route.
func (c *Client) Offload(ctx context.Context, req cran.OffloadRequest) (cran.OffloadResponse, error) {
	_, sh := c.Route(req.Pos)
	if req.UserID != "" {
		if prev, ok := c.last.Load(req.UserID); ok && prev.(int) != sh {
			c.m.handoffs.Inc()
		}
		c.last.Store(req.UserID, sh)
	}
	c.m.inflight.Add(1)
	start := time.Now()
	resp, err := c.shards[sh].Offload(ctx, req)
	c.m.latency.Observe(time.Since(start).Seconds())
	c.m.inflight.Add(-1)
	c.m.requests[sh].Inc()
	return resp, err
}

// Handoffs returns the number of cross-shard handoffs observed so far.
func (c *Client) Handoffs() uint64 { return c.m.handoffs.Value() }

// Requests returns the number of requests routed to the given shard.
func (c *Client) Requests(shard int) uint64 { return c.m.requests[shard].Value() }

// Health probes every shard concurrently and merges the answers into one
// cluster view: counters sum, batch and latency means are weighted by epoch
// count, uptime is the youngest shard's. Any shard failing its probe fails
// the whole call — a cluster with a dead shard is not healthy.
func (c *Client) Health(ctx context.Context) (cran.Health, error) {
	hs := make([]cran.Health, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hs[i], errs[i] = c.shards[i].Health(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return cran.Health{}, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return mergeHealth(hs), nil
}

// Close closes every per-shard connection, returning the first error.
func (c *Client) Close() error {
	var first error
	for _, sc := range c.shards {
		if err := sc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// mergeHealth folds per-shard health payloads into a cluster aggregate:
// every numeric Stats field sums and the portfolio maps merge by member,
// except the fields that do not add — the batch and queue-wait maxima, the
// epoch-weighted means, and the shard identity. The result shares no map
// with the inputs.
func mergeHealth(hs []cran.Health) cran.Health {
	if len(hs) == 0 {
		return cran.Health{}
	}
	out := cran.Health{UptimeS: hs[0].UptimeS}
	a := &out.Stats
	var batchW, latW float64
	for _, h := range hs {
		b := h.Stats
		out.UptimeS = min(out.UptimeS, h.UptimeS)
		out.ActiveConns += h.ActiveConns
		maxBatch, maxWait := max(a.MaxBatch, b.MaxBatch), max(a.QueueWaitEstimate, b.QueueWaitEstimate)
		addNumeric(reflect.ValueOf(a).Elem(), reflect.ValueOf(b))
		a.MaxBatch, a.QueueWaitEstimate = maxBatch, maxWait
		a.PortfolioMemberSlots = addMap(a.PortfolioMemberSlots, b.PortfolioMemberSlots)
		a.PortfolioMemberWins = addMap(a.PortfolioMemberWins, b.PortfolioMemberWins)
		a.PortfolioBudgetMs = addMap(a.PortfolioBudgetMs, b.PortfolioBudgetMs)
		batchW += b.MeanBatch * float64(b.Epochs)
		latW += float64(b.MeanEpochLatency) * float64(b.Epochs)
	}
	// The merged shard identity is meaningless; report the cluster size.
	a.ShardIndex, a.ShardCount = 0, len(hs)
	a.MeanBatch, a.MeanEpochLatency = 0, 0
	if a.Epochs > 0 {
		a.MeanBatch = batchW / float64(a.Epochs)
		a.MeanEpochLatency = time.Duration(latW / float64(a.Epochs))
	}
	return out
}

// addNumeric adds every integer and float field of the struct src into the
// addressable struct dst of the same type.
func addNumeric(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		f, g := dst.Field(i), src.Field(i)
		switch {
		case f.CanInt():
			f.SetInt(f.Int() + g.Int())
		case f.CanUint():
			f.SetUint(f.Uint() + g.Uint())
		case f.CanFloat():
			f.SetFloat(f.Float() + g.Float())
		}
	}
}

// addMap adds src into dst by key, allocating dst on first use, and returns
// dst.
func addMap[V uint64 | float64](dst, src map[string]V) map[string]V {
	for k, v := range src {
		if dst == nil {
			dst = make(map[string]V, len(src))
		}
		dst[k] += v
	}
	return dst
}
