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

	"github.com/tsajs/tsajs/internal/cli"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/shard"
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
	shared := cli.AddCoordinator(fs, 50*time.Millisecond, 20000)
	var (
		listen     = fs.String("listen", "127.0.0.1:7600", "listen address")
		deltaEvery = fs.Int("delta-full-every", 0, "force a full solve every N epochs (0 = library default)")

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
	cfg, err := shared.Config()
	if err != nil {
		return err
	}
	cfg.Limits = cran.Limits{ReadTimeout: *readTimeout, MaxLineBytes: *maxLine, MaxConns: *maxConns}

	if *router {
		return runRouter(cfg.Params, *listen, *shardAddrs, *ringReplicas, cfg.Limits, *metricsAddr, stdout, stop)
	}
	if *shardAddrs != "" {
		return fmt.Errorf("-shard-addrs only applies with -router")
	}
	if cfg.Delta != nil {
		cfg.Delta.FullEvery = *deltaEvery
	}
	if *shards > 0 {
		ring, err := shard.NewRing(*shards, *ringReplicas)
		if err != nil {
			return err
		}
		cfg.Partition = &cran.PartitionConfig{
			Shards:     *shards,
			Index:      *shardIndex,
			Assignment: ring.Assignment(cfg.Params.NumServers),
		}
	} else if *shardIndex != 0 {
		return fmt.Errorf("-shard-index needs -shards")
	}

	cfg.Metrics = obs.NewRegistry()
	srv, err := cran.NewServer(*listen, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "coordinator listening on %s (S=%d, N=%d, window=%s)\n",
		srv.Addr(), cfg.Params.NumServers, cfg.Params.NumChannels, cfg.BatchWindow)
	if p := cfg.Partition; p != nil {
		fmt.Fprintf(stdout, "shard %d of %d owning cells %v\n",
			p.Index, p.Shards, shard.Owned(p.Assignment, p.Index))
	}
	if cfg.Delta != nil {
		fmt.Fprintf(stdout, "delta-epoch serving: threshold=%.3fkm full-every=%d\n",
			cfg.Delta.MoveThresholdKm, cfg.Delta.WithDefaults().FullEvery)
	}

	if err := serveUntilStopped(*metricsAddr, obs.Mux(cfg.Metrics, func() any { return srv.Stats() }), stdout, stop); err != nil {
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
	if cfg.Portfolio != nil {
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
func runRouter(params scenario.Params, listen, shardAddrs string, ringReplicas int, limits cran.Limits, metricsAddr string, stdout io.Writer, stop <-chan struct{}) error {
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

	reg := obs.NewRegistry()
	rt, err := shard.NewRouter(listen, shard.RouterConfig{
		Client: shard.ClientConfig{
			Addrs:      addrs,
			Sites:      geom.HexLayout(params.NumServers, params.InterSiteKm),
			Replicas:   ringReplicas,
			Resilience: cran.ResilienceConfig{Protocol: cran.ProtoBinary},
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

	if err := serveUntilStopped(metricsAddr, obs.Mux(reg, nil), stdout, stop); err != nil {
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
