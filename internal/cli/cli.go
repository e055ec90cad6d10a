// Package cli declares, once each, the command-line flags the tsajs
// commands share, and turns them into library configuration:
//
//   - Portfolio: -chains, -portfolio and -members, for tsajs-solve,
//     tsajs-replay, tsajs-coordinator and tsajs-loadgen.
//   - Delta: -delta and -delta-threshold-km, for tsajs-replay,
//     tsajs-coordinator and tsajs-loadgen.
//   - Coordinator: the coordinator's serving options, for
//     tsajs-coordinator and the coordinator tsajs-loadgen hosts itself.
//
// Flags that belong to one command stay in that command.
package cli

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/solver"
)

// Portfolio holds the -chains, -portfolio and -members flags.
type Portfolio struct {
	chains        *int
	mode, members *string
}

// AddPortfolio registers -chains, -portfolio and -members on fs.
func AddPortfolio(fs *flag.FlagSet) *Portfolio {
	return &Portfolio{
		chains: fs.Int("chains", 0,
			"solve as a K-chain deterministic portfolio (0/1 = single TTSA chain)"),
		mode: fs.String("portfolio", "fixed",
			"portfolio budget allocation: fixed (round-robin, bit-identical across worker counts) or adaptive (online bandit selector; requires -chains > 1)"),
		members: fs.String("members", "",
			"comma-separated portfolio member roster ("+strings.Join(portfolio.MemberNames(), ", ")+
				"); empty = homogeneous ttsa, or the diverse default under -portfolio adaptive"),
	}
}

// Options returns the parsed flags as PortfolioOptions, or nil for a single
// TTSA chain (-chains 0 or 1). The mode is "fixed" (or empty) or
// "adaptive", in any case; every roster name is validated, and the options
// must pass solver.PortfolioOptions.Validate.
func (p *Portfolio) Options() (*solver.PortfolioOptions, error) {
	var adaptive bool
	switch strings.ToLower(*p.mode) {
	case "", "fixed":
	case "adaptive":
		adaptive = true
	default:
		return nil, fmt.Errorf("unknown -portfolio mode %q (want fixed or adaptive)", *p.mode)
	}
	roster, err := portfolio.ParseMembers(*p.members)
	if err != nil {
		return nil, err
	}
	opts := &solver.PortfolioOptions{Chains: *p.chains, Members: roster, Adaptive: adaptive}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Chains <= 1 {
		return nil, nil
	}
	return opts, nil
}

// Delta holds the -delta and -delta-threshold-km flags.
type Delta struct {
	on        *bool
	threshold *float64
}

// AddDelta registers -delta and -delta-threshold-km on fs.
func AddDelta(fs *flag.FlagSet) *Delta {
	return &Delta{
		on: fs.Bool("delta", false,
			"incremental delta-epoch solving: refresh only moved users' gain rows and repair-anneal around the previous epoch"),
		threshold: fs.Float64("delta-threshold-km", 0.05,
			"movement that marks a user dirty [km] (0 = every user, every epoch)"),
	}
}

// Config returns the delta configuration the flags describe, or nil
// without -delta.
func (d *Delta) Config() *delta.Config {
	if !*d.on {
		return nil
	}
	return &delta.Config{MoveThresholdKm: *d.threshold}
}

// Coordinator holds the serving options tsajs-coordinator and the
// coordinator tsajs-loadgen hosts itself share.
type Coordinator struct {
	servers, channels, batch, budget, workers, queueDepth *int
	window, deadline                                      *time.Duration
	seed                                                  *uint64
	brownout                                              *bool
	portfolio                                             *Portfolio
	delta                                                 *Delta
}

// AddCoordinator registers the shared coordinator flags on fs, with the
// command's defaults for the batch window and the TTSA budget:
// -servers -channels -window -batch -seed -budget -workers -queue-depth
// -deadline -brownout -chains -portfolio -members -delta
// -delta-threshold-km.
func AddCoordinator(fs *flag.FlagSet, window time.Duration, budget int) *Coordinator {
	params := scenario.DefaultParams()
	return &Coordinator{
		servers:    fs.Int("servers", params.NumServers, "number of MEC servers"),
		channels:   fs.Int("channels", params.NumChannels, "subchannels per cell"),
		window:     fs.Duration("window", window, "epoch batch window"),
		batch:      fs.Int("batch", 0, "max batch size (0 = network slot capacity)"),
		seed:       fs.Uint64("seed", 1, "coordinator random seed"),
		budget:     fs.Int("budget", budget, "TTSA evaluation budget per epoch"),
		workers:    fs.Int("workers", 0, "solver workers draining the epoch queue (0 = GOMAXPROCS)"),
		queueDepth: fs.Int("queue-depth", 0, "solve queue depth before epochs are shed (0 = 2x workers, at least 4)"),
		deadline: fs.Duration("deadline", 0,
			"default per-request deadline; stale requests are shed at admission or dequeue (0 = none)"),
		brownout: fs.Bool("brownout", false,
			"degrade epoch solves under queue pressure (truncated anneal, then cheap heuristic) instead of shedding"),
		portfolio: AddPortfolio(fs),
		delta:     AddDelta(fs),
	}
}

// Config returns the coordinator configuration the flags describe. Delta
// is nil without -delta, and Portfolio nil for a single TTSA chain.
func (c *Coordinator) Config() (cran.ServerConfig, error) {
	pf, err := c.portfolio.Options()
	if err != nil {
		return cran.ServerConfig{}, err
	}
	params := scenario.DefaultParams()
	params.NumServers = *c.servers
	params.NumChannels = *c.channels
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = *c.budget
	cfg := cran.ServerConfig{
		Params:          params,
		BatchWindow:     *c.window,
		MaxBatch:        *c.batch,
		TTSA:            &ttsaCfg,
		Seed:            *c.seed,
		Workers:         *c.workers,
		QueueDepth:      *c.queueDepth,
		DefaultDeadline: *c.deadline,
		Brownout:        cran.BrownoutConfig{Enabled: *c.brownout},
		Portfolio:       pf,
		Delta:           c.delta.Config(),
	}
	return cfg, nil
}
