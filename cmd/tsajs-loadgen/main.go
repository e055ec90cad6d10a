// Command tsajs-loadgen drives a live C-RAN coordinator over TCP at a
// target offered load and reports the serving-path throughput: epochs/sec,
// request latency percentiles (p50/p95/p99), achieved requests/sec, and
// the coordinator's queue depth and rejection counters.
//
// Usage:
//
//	tsajs-loadgen -conns 16 -duration 10s               # self-hosted coordinator
//	tsajs-loadgen -addr 127.0.0.1:7600 -rate 200        # externally running one
//	tsajs-loadgen -protocol binary -conns 4             # wirev2 multiplexed frames
//	tsajs-loadgen -workers 4 -queue-depth 8 -json       # pipeline knobs + JSON report
//	tsajs-loadgen -deadline 150ms -brownout -chaos 40ms # overload-resilience drill
//	tsajs-loadgen -shards 4 -conns 16                   # self-hosted 4-shard cluster
//
// With -addr empty (the default) the tool starts an in-process coordinator,
// configured by the serving flags it shares with tsajs-coordinator
// (-servers, -channels, -workers, -queue-depth, -deadline, -delta and so
// on; internal/cli), so a single command measures the serving pipeline end
// to end — TCP framing, epoch batching, the bounded solve queue, and the
// TTSA solve itself. With -addr set those flags are ignored.
// Epochs/sec comes from a health-probe delta over the measured window;
// latencies are client-observed round trips.
//
// With -shards K the self-hosted tier becomes a K-coordinator cluster
// partitioned by cell over the consistent-hash ring, driven through
// shard-aware clients. Each connection's user walks across the cell layout
// between requests, so routing crosses shard boundaries and the report's
// handoff count measures real cross-shard mobility. Throughput and queue
// figures come from the merged cluster health view.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/tsajs/tsajs/internal/cli"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/shard"
	"github.com/tsajs/tsajs/internal/task"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsajs-loadgen:", err)
		os.Exit(1)
	}
}

// report is the machine-readable run summary (-json).
type report struct {
	Conns      int     `json:"conns"`
	Protocol   string  `json:"protocol"`
	DurationS  float64 `json:"durationS"`
	OfferedRPS float64 `json:"offeredRPS,omitempty"`

	Requests        int `json:"requests"`
	Scheduled       int `json:"scheduled"`
	Degraded        int `json:"degraded"`
	Rejected        int `json:"rejected"`
	Expired         int `json:"expired"`
	TransportErrors int `json:"transportErrors"`

	RequestsPerSec float64 `json:"requestsPerSec"`
	EpochsPerSec   float64 `json:"epochsPerSec"`
	P50Ms          float64 `json:"p50Ms"`
	P95Ms          float64 `json:"p95Ms"`
	P99Ms          float64 `json:"p99Ms"`

	// Wire-cost view from the coordinator's byte and frame counters over
	// the measurement window (health-probe traffic included).
	BytesPerRequest float64 `json:"bytesPerRequest"`
	FramesPerSec    float64 `json:"framesPerSec"`
	WireBytes       uint64  `json:"wireBytes"`

	MeanBatch      float64 `json:"meanBatch"`
	QueueDepth     int     `json:"queueDepth"`
	MaxQueueDepth  int     `json:"maxQueueDepth"`
	EpochsRejected uint64  `json:"epochsRejected"`
	EpochsDegraded uint64  `json:"epochsDegraded"`
	EpochsExpired  uint64  `json:"epochsExpired"`
	SolverWorkers  int     `json:"solverWorkers"`

	// Cluster view (zero/absent for a single unpartitioned coordinator):
	// shard count, cross-shard handoffs observed by the clients, and the
	// coordinators' wrong-shard tripwire (must stay zero).
	Shards     int    `json:"shards,omitempty"`
	Handoffs   uint64 `json:"handoffs,omitempty"`
	WrongShard uint64 `json:"wrongShard,omitempty"`

	// Delta-epoch view (zero/absent without -delta): how the epochs over
	// the window split between full solves and scoped repairs, and how many
	// gain-tensor rows the incremental path reused instead of redrawing.
	DeltaFullEpochs   uint64 `json:"deltaFullEpochs,omitempty"`
	DeltaRepairEpochs uint64 `json:"deltaRepairEpochs,omitempty"`
	DeltaRowsReused   uint64 `json:"deltaRowsReused,omitempty"`

	// MeanEpochUtility is the average achieved system utility per epoch
	// over the window — the quality axis of the utility-at-fixed-latency
	// comparison between portfolio modes.
	MeanEpochUtility float64 `json:"meanEpochUtility,omitempty"`

	// Portfolio member view (absent without -chains > 1): per-member epoch
	// wins over the window and each member's share of the window's
	// chain-slot compute budget.
	MemberWins        map[string]uint64  `json:"memberWins,omitempty"`
	MemberBudgetShare map[string]float64 `json:"memberBudgetShare,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsajs-loadgen", flag.ContinueOnError)
	shared := cli.AddCoordinator(fs, 20*time.Millisecond, 4000)
	var (
		addr     = fs.String("addr", "", "coordinator address (empty: self-host one in process)")
		conns    = fs.Int("conns", 8, "concurrent client connections")
		protocol = fs.String("protocol", "json", "client wire protocol: json (line-delimited envelopes) or binary (wirev2 multiplexed frames)")
		duration = fs.Duration("duration", 5*time.Second, "measurement window")
		rate     = fs.Float64("rate", 0, "offered load, requests/sec across all conns (0 = closed loop)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")

		chaos        = fs.Duration("chaos", 0, "self-host: inject this solver delay into every epoch (0 = none)")
		shards       = fs.Int("shards", 0, "self-host: coordinator shards (0 = one unpartitioned coordinator; K >= 1 partitions the cells over a K-shard cluster)")
		ringReplicas = fs.Int("ring-replicas", 0, "self-host: consistent-hash ring vnodes per shard (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns <= 0 {
		return fmt.Errorf("conns must be positive, got %d", *conns)
	}
	if *duration <= 0 {
		return fmt.Errorf("duration must be positive, got %s", *duration)
	}
	if *protocol != cran.ProtoJSON && *protocol != cran.ProtoBinary {
		return fmt.Errorf("protocol must be %q or %q, got %q",
			cran.ProtoJSON, cran.ProtoBinary, *protocol)
	}
	if *shards > 0 && *addr != "" {
		return fmt.Errorf("-shards drives a self-hosted cluster and cannot combine with -addr")
	}

	cfg, err := shared.Config()
	if err != nil {
		return err
	}
	if *chaos > 0 {
		cfg.SolverChaos = &faults.SolverChaos{Seed: cfg.Seed, DelayProb: 1, Delay: *chaos}
	}
	params := cfg.Params
	// With -json the banner moves to stderr so stdout stays a single
	// machine-readable document fit for redirection.
	bannerOut := stdout
	if *jsonOut {
		bannerOut = os.Stderr
	}

	opts := driveOpts{
		protocol: *protocol,
		conns:    *conns,
		duration: *duration,
		rate:     *rate,
		// The default load orbits within the central cell: serving-path
		// throughput without routing churn.
		pos: func(c, i int) geom.Point {
			return geom.Point{
				X: 0.4*math.Cos(float64(c)+0.1*float64(i)) + 0.1,
				Y: 0.4 * math.Sin(float64(c)+0.1*float64(i)),
			}
		},
		userID: func(c, i int) string { return fmt.Sprintf("lg-%d-%d", c, i) },
	}
	if cfg.Delta != nil && *shards == 0 {
		// Delta mode tracks per-user state across epochs, so the load must
		// be a stable population taking small steps — fresh user IDs every
		// request would leave every epoch fully dirty.
		opts.userID = func(c, i int) string { return fmt.Sprintf("lg-%d", c) }
		opts.pos = func(c, i int) geom.Point {
			return geom.Point{
				X: 0.3*math.Cos(float64(c)) + 0.0005*float64(i),
				Y: 0.3 * math.Sin(float64(c)),
			}
		}
	}

	switch {
	case *shards > 0:
		// Self-hosted K-shard cluster driven through shard-aware clients.
		ring, err := shard.NewRing(*shards, *ringReplicas)
		if err != nil {
			return err
		}
		assignment := ring.Assignment(params.NumServers)
		addrs := make([]string, *shards)
		for i := 0; i < *shards; i++ {
			shardCfg := cfg
			shardCfg.Partition = &cran.PartitionConfig{Shards: *shards, Index: i, Assignment: assignment}
			srv, err := cran.NewServer("127.0.0.1:0", shardCfg)
			if err != nil {
				return err
			}
			defer srv.Close()
			addrs[i] = srv.Addr().String()
		}
		sites := geom.HexLayout(params.NumServers, params.InterSiteKm)
		// One registry for every client of the run, so the tsajs_shard_*
		// rollup (per-shard requests, handoffs) aggregates across them.
		reg := obs.NewRegistry()
		opts.dial = func() (client, error) {
			return shard.NewClient(shard.ClientConfig{
				Addrs:      addrs,
				Sites:      sites,
				Assignment: assignment,
				Resilience: cran.ResilienceConfig{
					Protocol:         *protocol,
					MaxAttempts:      1,
					BreakerThreshold: -1,
				},
				Metrics: reg,
			})
		}
		counters, err := shard.NewClient(shard.ClientConfig{
			Addrs: addrs, Sites: sites, Assignment: assignment, Metrics: reg,
		})
		if err != nil {
			return err
		}
		defer counters.Close()
		opts.shards = *shards
		opts.handoffs = counters.Handoffs
		// Each connection's user is stable and walks one site further every
		// request, so routing keeps crossing cell — and shard — boundaries.
		opts.userID = func(c, i int) string { return fmt.Sprintf("lg-%d", c) }
		opts.pos = func(c, i int) geom.Point {
			site := sites[(c+i)%len(sites)]
			return geom.Point{
				X: site.X + 0.1*math.Cos(float64(c)+0.1*float64(i)),
				Y: site.Y + 0.1*math.Sin(float64(c)+0.1*float64(i)),
			}
		}
		fmt.Fprintf(bannerOut, "self-hosted %d-shard cluster on %v (S=%d, N=%d)\n",
			*shards, addrs, params.NumServers, params.NumChannels)

	case *addr == "":
		srv, err := cran.NewServer("127.0.0.1:0", cfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		target := srv.Addr().String()
		opts.dial = dialFunc(target, *protocol)
		fmt.Fprintf(bannerOut, "self-hosted coordinator on %s (S=%d, N=%d, workers=%d)\n",
			target, params.NumServers, params.NumChannels, srv.Stats().SolverWorkers)

	default:
		opts.dial = dialFunc(*addr, *protocol)
	}

	rep, err := drive(opts)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(stdout, "offered: %d conns, %s window", rep.Conns, time.Duration(rep.DurationS*float64(time.Second)).Round(time.Millisecond))
	if rep.OfferedRPS > 0 {
		fmt.Fprintf(stdout, ", %.0f req/s target", rep.OfferedRPS)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "requests: %d total, %d scheduled (%d degraded tier), %d rejected, %d expired, %d transport errors\n",
		rep.Requests, rep.Scheduled, rep.Degraded, rep.Rejected, rep.Expired, rep.TransportErrors)
	fmt.Fprintf(stdout, "throughput: %.1f req/s, %.2f epochs/s (mean batch %.1f)\n",
		rep.RequestsPerSec, rep.EpochsPerSec, rep.MeanBatch)
	fmt.Fprintf(stdout, "latency: p50 %.1fms, p95 %.1fms, p99 %.1fms\n", rep.P50Ms, rep.P95Ms, rep.P99Ms)
	fmt.Fprintf(stdout, "wire: %s protocol, %.1f bytes/request, %.1f frames/s\n",
		rep.Protocol, rep.BytesPerRequest, rep.FramesPerSec)
	fmt.Fprintf(stdout, "pipeline: %d solver workers, queue depth %d (max seen %d), %d epochs shed, %d degraded, %d expired\n",
		rep.SolverWorkers, rep.QueueDepth, rep.MaxQueueDepth, rep.EpochsRejected, rep.EpochsDegraded, rep.EpochsExpired)
	if rep.Shards > 0 {
		fmt.Fprintf(stdout, "cluster: %d shards, %d cross-shard handoffs, %d wrong-shard rejections\n",
			rep.Shards, rep.Handoffs, rep.WrongShard)
	}
	if rep.DeltaFullEpochs+rep.DeltaRepairEpochs > 0 {
		fmt.Fprintf(stdout, "delta: %d full epochs, %d repair epochs, %d gain rows reused\n",
			rep.DeltaFullEpochs, rep.DeltaRepairEpochs, rep.DeltaRowsReused)
	}
	if rep.MeanEpochUtility != 0 {
		fmt.Fprintf(stdout, "utility: %.3f mean per epoch\n", rep.MeanEpochUtility)
	}
	if len(rep.MemberWins) > 0 {
		names := make([]string, 0, len(rep.MemberWins))
		for m := range rep.MemberWins {
			names = append(names, m)
		}
		sort.Strings(names)
		fmt.Fprint(stdout, "portfolio:")
		for _, m := range names {
			fmt.Fprintf(stdout, " %s=%d wins/%.0f%% budget", m, rep.MemberWins[m], 100*rep.MemberBudgetShare[m])
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// client is the slice of the coordinator-client surface the generator
// needs; both the direct cran client and the shard-aware fan-out satisfy it.
type client interface {
	Offload(ctx context.Context, req cran.OffloadRequest) (cran.OffloadResponse, error)
	Health(ctx context.Context) (cran.Health, error)
	Close() error
}

// dialFunc adapts the direct single-coordinator dialers to the client
// factory drive consumes.
func dialFunc(target, protocol string) func() (client, error) {
	dial := cran.Dial
	if protocol == cran.ProtoBinary {
		dial = cran.DialBinary
	}
	return func() (client, error) { return dial(target) }
}

// driveOpts parametrizes a measurement window: how to reach the serving
// tier, the offered load, and the per-request identity and position shape.
type driveOpts struct {
	dial     func() (client, error)
	protocol string
	conns    int
	duration time.Duration
	rate     float64
	pos      func(conn, seq int) geom.Point
	userID   func(conn, seq int) string
	shards   int
	handoffs func() uint64
}

// drive runs the measurement window against the serving tier.
func drive(opts driveOpts) (report, error) {
	conns, duration, rate := opts.conns, opts.duration, opts.rate
	probe, err := opts.dial()
	if err != nil {
		return report{}, fmt.Errorf("probe dial: %w", err)
	}
	defer probe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), duration+30*time.Second)
	defer cancel()
	before, err := probe.Health(ctx)
	if err != nil {
		return report{}, fmt.Errorf("health probe: %w", err)
	}

	// One worker per connection, closed loop or paced from the shared rate.
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(conns) / rate * float64(time.Second))
	}
	type connStats struct {
		latencies []time.Duration
		scheduled int
		degraded  int
		rejected  int
		expired   int
		transport int
	}
	stats := make([]connStats, conns)
	maxQueue := 0
	var maxQueueMu sync.Mutex

	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := opts.dial()
			if err != nil {
				stats[c].transport++
				return
			}
			defer cli.Close()
			next := time.Now()
			for i := 0; time.Now().Before(deadline); i++ {
				if interval > 0 {
					if wait := time.Until(next); wait > 0 {
						time.Sleep(wait)
					}
					next = next.Add(interval)
				}
				req := cran.OffloadRequest{
					UserID: opts.userID(c, i),
					Pos:    opts.pos(c, i),
					Task:   task.Task{DataBits: 420 * 8 * 1024, WorkCycles: 1000e6},
				}
				start := time.Now()
				resp, err := cli.Offload(ctx, req)
				elapsed := time.Since(start)
				switch {
				case err == nil:
					stats[c].scheduled++
					if resp.Tier != "" {
						stats[c].degraded++
					}
					stats[c].latencies = append(stats[c].latencies, elapsed)
				case errors.Is(err, cran.ErrDeadlineExceeded):
					stats[c].expired++
					stats[c].latencies = append(stats[c].latencies, elapsed)
				case errors.Is(err, cran.ErrQueueFull),
					errors.Is(err, cran.ErrAdmissionRejected):
					stats[c].rejected++
					stats[c].latencies = append(stats[c].latencies, elapsed)
				default:
					stats[c].transport++
					return
				}
			}
		}(c)
	}

	// Sample the queue depth while the load runs.
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for time.Now().Before(deadline) {
			<-tick.C
			h, err := probe.Health(ctx)
			if err != nil {
				return
			}
			maxQueueMu.Lock()
			if h.Stats.QueueDepth > maxQueue {
				maxQueue = h.Stats.QueueDepth
			}
			maxQueueMu.Unlock()
		}
	}()
	wg.Wait()
	<-sampleDone
	elapsed := duration.Seconds()

	after, err := probe.Health(ctx)
	if err != nil {
		return report{}, fmt.Errorf("final health probe: %w", err)
	}

	// Every coordinator count is a delta over the window: a coordinator
	// behind -addr may have served traffic before this run.
	b, a := before.Stats, after.Stats
	epochs := a.Epochs - b.Epochs
	var all []time.Duration
	rep := report{Conns: conns, Protocol: opts.protocol, DurationS: elapsed, OfferedRPS: rate, MaxQueueDepth: maxQueue}
	for _, cs := range stats {
		all = append(all, cs.latencies...)
		rep.Scheduled += cs.scheduled
		rep.Degraded += cs.degraded
		rep.Rejected += cs.rejected
		rep.Expired += cs.expired
		rep.TransportErrors += cs.transport
	}
	rep.Requests = rep.Scheduled + rep.Rejected + rep.Expired + rep.TransportErrors
	rep.RequestsPerSec = float64(rep.Scheduled+rep.Rejected+rep.Expired) / elapsed
	rep.EpochsPerSec = float64(epochs) / elapsed
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50Ms = quantileMs(all, 0.50)
	rep.P95Ms = quantileMs(all, 0.95)
	rep.P99Ms = quantileMs(all, 0.99)
	// Wire cost from the coordinator's own byte and frame counters: the
	// delta over the window divided by the requests this run answered. The
	// health-probe sampler's traffic rides the same counters, so the
	// per-request figure is a slight overestimate — identically for both
	// protocols, which is what the JSON-vs-binary comparison needs.
	rep.WireBytes = a.BytesRead - b.BytesRead + a.BytesWritten - b.BytesWritten
	if n := rep.Scheduled + rep.Rejected + rep.Expired; n > 0 {
		rep.BytesPerRequest = float64(rep.WireBytes) / float64(n)
	}
	rep.FramesPerSec = float64(a.FramesJSON-b.FramesJSON+a.FramesBinary-b.FramesBinary) / elapsed
	rep.QueueDepth = a.QueueDepth
	rep.EpochsRejected = a.EpochsRejected - b.EpochsRejected
	rep.EpochsDegraded = a.EpochsDegradedTruncated + a.EpochsDegradedCheap - b.EpochsDegradedTruncated - b.EpochsDegradedCheap
	rep.EpochsExpired = a.EpochsExpired - b.EpochsExpired
	rep.SolverWorkers = a.SolverWorkers
	rep.Shards = opts.shards
	if opts.handoffs != nil {
		rep.Handoffs = opts.handoffs()
	}
	rep.WrongShard = a.WrongShard - b.WrongShard
	rep.DeltaFullEpochs = a.DeltaFullEpochs - b.DeltaFullEpochs
	rep.DeltaRepairEpochs = a.DeltaRepairEpochs - b.DeltaRepairEpochs
	rep.DeltaRowsReused = a.DeltaRowsReused - b.DeltaRowsReused
	if epochs > 0 {
		rep.MeanBatch = float64(a.Offloaded+a.Local-b.Offloaded-b.Local) / float64(epochs)
		rep.MeanEpochUtility = (a.UtilitySum - b.UtilitySum) / float64(epochs)
	}
	if len(a.PortfolioMemberSlots) > 0 {
		rep.MemberWins = make(map[string]uint64, len(a.PortfolioMemberWins))
		rep.MemberBudgetShare = make(map[string]float64, len(a.PortfolioBudgetMs))
		var totalBudget float64
		for m, ms := range a.PortfolioBudgetMs {
			totalBudget += ms - b.PortfolioBudgetMs[m]
		}
		for m := range a.PortfolioMemberSlots {
			rep.MemberWins[m] = a.PortfolioMemberWins[m] - b.PortfolioMemberWins[m]
			if totalBudget > 0 {
				rep.MemberBudgetShare[m] = (a.PortfolioBudgetMs[m] - b.PortfolioBudgetMs[m]) / totalBudget
			}
		}
	}
	return rep, nil
}

// quantileMs returns the q-quantile of the sorted latency slice in
// milliseconds (nearest-rank), or 0 for an empty slice.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}
