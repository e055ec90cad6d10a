// Command tsajs-coordinator runs the C-RAN scheduling coordinator: a TCP
// service that batches offloading requests from mobile clients into epochs
// and schedules each epoch with TSAJS.
//
// Usage:
//
//	tsajs-coordinator -listen 127.0.0.1:7600 -servers 9 -channels 3
//	tsajs-coordinator -metrics-addr 127.0.0.1:7601   # + HTTP introspection
//
// Clients speak either newline-delimited JSON or the wirev2 framed binary
// protocol (see internal/cran); the two are negotiated per connection on
// its first bytes, so one listener serves both. The quickest way to
// exercise a running coordinator is examples/coordinated. With
// -metrics-addr set, the coordinator additionally serves /metrics
// (Prometheus text), /stats (the Stats snapshot as JSON), /healthz, and
// the net/http/pprof profiling handlers under /debug/pprof/.
//
// Sharded clusters: with -shards K -shard-index I the process serves as one
// shard of a K-coordinator cluster, owning the cells the consistent-hash
// ring assigns to index I and rejecting foreign-cell requests with the
// typed wrong_shard code. With -router -shard-addrs a,b,... the process
// instead fronts such a cluster behind a single endpoint, speaking both wire
// codecs under the same -read-timeout, -max-line-bytes and -max-conns
// limits, and routing each request to the shard owning its cell:
//
//	tsajs-coordinator -listen :7601 -shards 4 -shard-index 0
//	...
//	tsajs-coordinator -listen :7600 -router -shard-addrs :7601,:7602,:7603,:7604
//
// Every component derives the same cell→shard table from (-servers,
// -shards, -ring-replicas), so no table is exchanged on the wire.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/tsajs/tsajs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tsajs-coordinator:", err)
		os.Exit(1)
	}
}

// run starts the coordinator and blocks until a signal arrives or the
// ready channel's consumer closes stop (tests drive it through stop).
func run(args []string, stdout io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("tsajs-coordinator", flag.ContinueOnError)
	defaults := tsajs.DefaultParams()
	var (
		listen   = fs.String("listen", "127.0.0.1:7600", "listen address")
		servers  = fs.Int("servers", defaults.NumServers, "number of MEC servers")
		channels = fs.Int("channels", defaults.NumChannels, "subchannels per cell")
		window   = fs.Duration("window", 50*time.Millisecond, "epoch batch window")
		batch    = fs.Int("batch", 0, "max batch size (0 = network slot capacity)")
		seed     = fs.Uint64("seed", 1, "coordinator random seed")
		budget   = fs.Int("budget", 20000, "TTSA evaluation budget per epoch")

		workers    = fs.Int("workers", 0, "solver workers draining the epoch queue (0 = GOMAXPROCS)")
		queueDepth = fs.Int("queue-depth", 0, "solve queue depth before epochs are shed (0 = 2x workers)")

		deadline = fs.Duration("deadline", 0, "default per-request deadline; stale requests are shed at admission or dequeue (0 = none)")
		brownout = fs.Bool("brownout", false, "degrade epoch solves under queue pressure (truncated anneal, then cheap heuristic) instead of shedding")

		chains  = fs.Int("chains", 0, "solve every full-quality epoch as a K-chain portfolio (0/1 = single TTSA chain)")
		pfMode  = fs.String("portfolio", "fixed", "portfolio budget allocation: fixed (round-robin, bit-identical across worker counts) or adaptive (online bandit selector; requires -chains > 1)")
		members = fs.String("members", "", "comma-separated portfolio member roster (ttsa, ttsa-fast, ttsa-wide, attract, hjtora, greedy, cheap); empty = homogeneous ttsa, or the diverse default under -portfolio adaptive")

		deltaOn     = fs.Bool("delta", false, "incremental delta-epoch solving: refresh only moved users' gain rows and repair-anneal around the previous epoch")
		deltaThresh = fs.Float64("delta-threshold-km", 0.05, "movement that marks a user dirty [km] (0 = every user, every epoch)")
		deltaEvery  = fs.Int("delta-full-every", 0, "force a full solve every N epochs (0 = library default)")

		readTimeout = fs.Duration("read-timeout", 5*time.Minute, "per-connection idle read deadline (negative disables)")
		maxLine     = fs.Int("max-line-bytes", 1<<20, "maximum request line length on the wire [bytes]")
		maxConns    = fs.Int("max-conns", 256, "maximum concurrently served connections")

		metricsAddr = fs.String("metrics-addr", "",
			"HTTP introspection listen address serving /metrics (Prometheus), /stats (JSON), /healthz and /debug/pprof/ (empty disables)")

		shards       = fs.Int("shards", 0, "coordinator shards in the cluster (0 = unpartitioned single coordinator)")
		shardIndex   = fs.Int("shard-index", 0, "this coordinator's shard index in [0,shards)")
		ringReplicas = fs.Int("ring-replicas", 0, "consistent-hash ring vnodes per shard (0 = default)")
		router       = fs.Bool("router", false, "serve as the cluster router instead of a coordinator: forward each request to the shard owning its cell")
		shardAddrs   = fs.String("shard-addrs", "", "router: comma-separated shard coordinator addresses, index i is shard i")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	params := defaults
	params.NumServers = *servers
	params.NumChannels = *channels
	limits := tsajs.WireLimits{ReadTimeout: *readTimeout, MaxLineBytes: *maxLine, MaxConns: *maxConns}

	if *router {
		return runRouter(params, *listen, *shardAddrs, *ringReplicas, limits, *metricsAddr, stdout, stop)
	}
	if *shardAddrs != "" {
		return fmt.Errorf("-shard-addrs only applies with -router")
	}

	ttsaCfg := tsajs.DefaultConfig()
	ttsaCfg.MaxEvaluations = *budget

	var pfOpts *tsajs.PortfolioOptions
	switch *pfMode {
	case "", "fixed":
	case "adaptive":
		if *chains <= 1 {
			return fmt.Errorf("-portfolio adaptive requires -chains greater than 1")
		}
	default:
		return fmt.Errorf("unknown -portfolio mode %q (want fixed or adaptive)", *pfMode)
	}
	roster, err := tsajs.ParsePortfolioMembers(*members)
	if err != nil {
		return err
	}
	if *chains > 1 {
		pfOpts = &tsajs.PortfolioOptions{
			Chains:   *chains,
			Members:  roster,
			Adaptive: *pfMode == "adaptive",
		}
	} else if roster != nil {
		return fmt.Errorf("-members requires -chains greater than 1")
	}

	var deltaCfg *tsajs.DeltaConfig
	if *deltaOn {
		deltaCfg = &tsajs.DeltaConfig{
			MoveThresholdKm: *deltaThresh,
			FullEvery:       *deltaEvery,
		}
	}

	var partition *tsajs.CoordinatorPartition
	if *shards > 0 {
		ring, err := tsajs.NewShardRing(*shards, *ringReplicas)
		if err != nil {
			return err
		}
		partition = &tsajs.CoordinatorPartition{
			Shards:     *shards,
			Index:      *shardIndex,
			Assignment: ring.Assignment(*servers),
		}
	} else if *shardIndex != 0 {
		return fmt.Errorf("-shard-index needs -shards")
	}

	reg := tsajs.NewMetricsRegistry()
	srv, err := tsajs.NewCoordinator(*listen, tsajs.CoordinatorConfig{
		Params:      params,
		BatchWindow: *window,
		MaxBatch:    *batch,
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		TTSA:        &ttsaCfg,
		Seed:        *seed,
		Limits:      limits,
		Metrics:     reg,

		DefaultDeadline: *deadline,
		Brownout:        tsajs.BrownoutConfig{Enabled: *brownout},
		Partition:       partition,
		Delta:           deltaCfg,
		Portfolio:       pfOpts,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "coordinator listening on %s (S=%d, N=%d, window=%s)\n",
		srv.Addr(), *servers, *channels, *window)
	if partition != nil {
		fmt.Fprintf(stdout, "shard %d of %d owning cells %v\n",
			partition.Index, partition.Shards, tsajs.ShardOwned(partition.Assignment, partition.Index))
	}
	if deltaCfg != nil {
		fmt.Fprintf(stdout, "delta-epoch serving: threshold=%.3fkm full-every=%d\n",
			deltaCfg.MoveThresholdKm, deltaCfg.WithDefaults().FullEvery)
	}

	if err := serveUntilStopped(*metricsAddr, tsajs.MetricsMux(reg, func() any { return srv.Stats() }), stdout, stop); err != nil {
		return err
	}
	stats := srv.Stats()
	fmt.Fprintf(stdout,
		"shutting down: %d epochs, %d requests (%d rejected), %d offloaded / %d local, mean batch %.1f, solve time %s\n",
		stats.Epochs, stats.Requests, stats.Rejected, stats.Offloaded, stats.Local,
		stats.MeanBatch, stats.TotalSolveTime.Round(time.Millisecond))
	if stats.OversizeRequests+stats.ThrottledConns+stats.PanicsRecovered+stats.EpochsRejected > 0 {
		fmt.Fprintf(stdout, "hardening: %d oversize requests, %d throttled connections, %d panics recovered, %d epochs shed\n",
			stats.OversizeRequests, stats.ThrottledConns, stats.PanicsRecovered, stats.EpochsRejected)
	}
	if stats.WrongShard > 0 {
		fmt.Fprintf(stdout, "sharding: %d wrong-shard rejections (client routing tables are stale)\n", stats.WrongShard)
	}
	if stats.DeltaFullEpochs+stats.DeltaRepairEpochs > 0 {
		fmt.Fprintf(stdout, "delta: %d full epochs, %d repair epochs, %d dirty users, %d gain rows reused\n",
			stats.DeltaFullEpochs, stats.DeltaRepairEpochs, stats.DeltaDirtyUsers, stats.DeltaRowsReused)
	}
	if pfOpts != nil {
		for _, m := range sortedKeys(stats.PortfolioMemberSlots) {
			fmt.Fprintf(stdout, "portfolio member %-10s slots=%-6d wins=%-6d budget=%.1fms\n",
				m, stats.PortfolioMemberSlots[m], stats.PortfolioMemberWins[m], stats.PortfolioBudgetMs[m])
		}
	}
	degraded := stats.EpochsDegradedTruncated + stats.EpochsDegradedCheap
	shed := stats.ShedQueueFull + stats.ShedAdmission + stats.ShedExpired
	if degraded+stats.EpochsExpired+shed > 0 {
		fmt.Fprintf(stdout,
			"overload: %d epochs degraded (%d truncated, %d cheap), %d epochs expired, %d requests shed (%d queue-full, %d admission, %d expired)\n",
			degraded, stats.EpochsDegradedTruncated, stats.EpochsDegradedCheap, stats.EpochsExpired,
			shed, stats.ShedQueueFull, stats.ShedAdmission, stats.ShedExpired)
	}
	return nil
}

// sortedKeys returns a map's keys in ascending order for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// serveUntilStopped serves the introspection endpoint on metricsAddr, when
// set, and blocks until SIGINT or SIGTERM arrives or stop closes (tests
// drive it through stop).
func serveUntilStopped(metricsAddr string, mux http.Handler, stdout io.Writer, stop <-chan struct{}) error {
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer mln.Close()
		httpSrv := &http.Server{Handler: mux}
		defer httpSrv.Close()
		go func() { _ = httpSrv.Serve(mln) }()
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", mln.Addr())
	}
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	} else {
		<-stop
	}
	return nil
}

// runRouter serves the cluster-router mode: a single endpoint, in either
// wire codec, fanning requests out to the shard cluster at shardAddrs over
// the binary protocol.
func runRouter(params tsajs.Params, listen, shardAddrs string, ringReplicas int, limits tsajs.WireLimits, metricsAddr string, stdout io.Writer, stop <-chan struct{}) error {
	if shardAddrs == "" {
		return fmt.Errorf("-router needs -shard-addrs")
	}
	addrs := strings.Split(shardAddrs, ",")
	for i, a := range addrs {
		addrs[i] = strings.TrimSpace(a)
		if addrs[i] == "" {
			return fmt.Errorf("-shard-addrs entry %d is empty", i)
		}
	}

	reg := tsajs.NewMetricsRegistry()
	rt, err := tsajs.NewShardRouter(listen, tsajs.ShardRouterConfig{
		Client: tsajs.ShardClientConfig{
			Addrs:      addrs,
			Sites:      tsajs.CellSites(params),
			Replicas:   ringReplicas,
			Resilience: tsajs.ResilienceConfig{Protocol: tsajs.CoordinatorProtocolBinary},
			Metrics:    reg,
		},
		Limits:  limits,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Fprintf(stdout, "router listening on %s fronting %d shards (S=%d)\n",
		rt.Addr(), len(addrs), params.NumServers)

	if err := serveUntilStopped(metricsAddr, tsajs.MetricsMux(reg, nil), stdout, stop); err != nil {
		return err
	}
	cli := rt.Client()
	var perShard []uint64
	for i := 0; i < cli.Shards(); i++ {
		perShard = append(perShard, cli.Requests(i))
	}
	fmt.Fprintf(stdout, "shutting down: %v requests by shard, %d cross-shard handoffs\n",
		perShard, cli.Handoffs())
	return nil
}
