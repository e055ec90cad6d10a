package shard

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/task"
)

func TestClientConfigRejected(t *testing.T) {
	sites := diffSites()
	cases := []struct {
		name string
		cfg  ClientConfig
	}{
		{"no addrs", ClientConfig{Sites: sites}},
		{"no sites", ClientConfig{Addrs: []string{"127.0.0.1:1"}}},
		{"short assignment", ClientConfig{Addrs: []string{"127.0.0.1:1"}, Sites: sites, Assignment: []int{0}}},
		{"assignment out of range", ClientConfig{Addrs: []string{"127.0.0.1:1"}, Sites: sites,
			Assignment: []int{0, 0, 0, 0, 0, 0, 0, 0, 1}}},
	}
	for _, tc := range cases {
		if _, err := NewClient(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// startSmallCluster boots a 2-shard cluster over the 9-cell layout with an
// even explicit split and per-request epochs (MaxBatch 1).
func startSmallCluster(t *testing.T) (addrs []string, assignment []int) {
	t.Helper()
	assignment = []int{0, 0, 0, 0, 1, 1, 1, 1, 1}
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = 400
	for i := 0; i < 2; i++ {
		srv, err := cran.NewServer("127.0.0.1:0", cran.ServerConfig{
			Params:      diffParams(),
			BatchWindow: 2 * time.Millisecond,
			MaxBatch:    1,
			TTSA:        &ttsaCfg,
			Seed:        diffSeed,
			Workers:     2,
			QueueDepth:  16,
			Partition:   &cran.PartitionConfig{Shards: 2, Index: i, Assignment: assignment},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, srv.Addr().String())
	}
	return addrs, assignment
}

func walkerReq(id string, pos geom.Point) cran.OffloadRequest {
	return cran.OffloadRequest{
		UserID: id,
		Pos:    pos,
		Task:   task.Task{DataBits: 420 * 8 * 1024, WorkCycles: 3000e6},
	}
}

func TestClientRoutesAndCountsHandoffs(t *testing.T) {
	addrs, assignment := startSmallCluster(t)
	cli, err := NewClient(ClientConfig{
		Addrs:      addrs,
		Sites:      diffSites(),
		Assignment: assignment,
		Resilience: cran.ResilienceConfig{Protocol: cran.ProtoBinary, MaxAttempts: 1, BreakerThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sites := diffSites()
	// Same user in cell 0 (shard 0), then cell 5 (shard 1), then cell 1
	// (shard 0): two handoffs. A second user stays put: zero handoffs.
	hops := []int{0, 5, 1}
	for i, cell := range hops {
		resp, err := cli.Offload(ctx, walkerReq("mover", geom.Point{X: sites[cell].X + 0.02, Y: sites[cell].Y}))
		if err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		if resp.Offload && resp.Server != cell {
			t.Errorf("hop %d: offloaded to %d, cell is %d", i, resp.Server, cell)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := cli.Offload(ctx, walkerReq("homebody", geom.Point{X: sites[8].X, Y: sites[8].Y + 0.03})); err != nil {
			t.Fatalf("homebody %d: %v", i, err)
		}
	}
	if got := cli.Handoffs(); got != 2 {
		t.Errorf("Handoffs = %d, want 2", got)
	}
	if s0, s1 := cli.Requests(0), cli.Requests(1); s0 != 2 || s1 != 3 {
		t.Errorf("per-shard requests = %d/%d, want 2/3", s0, s1)
	}

	// The rollup surfaces in the Prometheus rendering.
	prom := string(cli.Metrics().PrometheusText())
	for _, want := range []string{
		`tsajs_shard_requests_total{shard="0"} 2`,
		`tsajs_shard_requests_total{shard="1"} 3`,
		`tsajs_shard_handoffs_total 2`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestClientHealthMergesCluster(t *testing.T) {
	addrs, assignment := startSmallCluster(t)
	cli, err := NewClient(ClientConfig{
		Addrs:      addrs,
		Sites:      diffSites(),
		Assignment: assignment,
		Resilience: cran.ResilienceConfig{Protocol: cran.ProtoBinary, MaxAttempts: 1, BreakerThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sites := diffSites()
	for _, cell := range []int{0, 5} {
		if _, err := cli.Offload(ctx, walkerReq("probe-user", geom.Point{X: sites[cell].X, Y: sites[cell].Y + 0.02})); err != nil {
			t.Fatal(err)
		}
	}
	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.Requests != 2 {
		t.Errorf("merged Requests = %d, want 2", h.Stats.Requests)
	}
	if h.Stats.Epochs != 2 {
		t.Errorf("merged Epochs = %d, want 2", h.Stats.Epochs)
	}
	if h.Stats.ShardCount != 2 {
		t.Errorf("merged ShardCount = %d, want 2", h.Stats.ShardCount)
	}
	if h.Stats.SolverWorkers != 4 {
		t.Errorf("merged SolverWorkers = %d, want 4 (2 per shard)", h.Stats.SolverWorkers)
	}
	if h.Stats.CellsOwned != 9 {
		t.Errorf("merged CellsOwned = %d, want 9", h.Stats.CellsOwned)
	}
}

// TestClientStaleAssignmentSurfacesWrongShard pins the mis-routing failure
// mode: a client whose assignment table disagrees with the cluster's gets
// the typed ErrWrongShard rather than a silent wrong answer.
func TestClientStaleAssignmentSurfacesWrongShard(t *testing.T) {
	addrs, assignment := startSmallCluster(t)
	stale := make([]int, len(assignment))
	for c, s := range assignment {
		stale[c] = 1 - s // every cell routed to the wrong shard
	}
	cli, err := NewClient(ClientConfig{
		Addrs:      addrs,
		Sites:      diffSites(),
		Assignment: stale,
		Resilience: cran.ResilienceConfig{Protocol: cran.ProtoBinary, MaxAttempts: 1, BreakerThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sites := diffSites()
	_, err = cli.Offload(ctx, walkerReq("lost", geom.Point{X: sites[0].X + 0.02, Y: sites[0].Y}))
	if !errors.Is(err, cran.ErrWrongShard) {
		t.Errorf("stale routing returned %v, want ErrWrongShard", err)
	}
}

func TestMergeHealthEmpty(t *testing.T) {
	if got := mergeHealth(nil); !reflect.DeepEqual(got, cran.Health{}) {
		t.Errorf("mergeHealth(nil) = %+v, want zero", got)
	}
}

// TestMergeHealthSumsEveryCounter: merging shard snapshots sums every
// numeric Stats field except the named ones that do not add, and merges the
// portfolio maps into fresh maps without aliasing any shard's.
func TestMergeHealthSumsEveryCounter(t *testing.T) {
	notSummed := map[string]bool{
		"MaxBatch": true, "QueueWaitEstimate": true, // maxima
		"MeanBatch": true, "MeanEpochLatency": true, // epoch-weighted means
		"ShardIndex": true, "ShardCount": true, // identity
	}
	shard := func(scale int) cran.Health {
		var h cran.Health
		v := reflect.ValueOf(&h.Stats).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch {
			case f.CanInt():
				f.SetInt(int64(scale * (i + 1)))
			case f.CanUint():
				f.SetUint(uint64(scale * (i + 1)))
			case f.CanFloat():
				f.SetFloat(float64(scale * (i + 1)))
			}
		}
		h.Stats.PortfolioMemberSlots = map[string]uint64{"ttsa": uint64(scale)}
		h.Stats.PortfolioMemberWins = map[string]uint64{"ttsa": uint64(scale)}
		h.Stats.PortfolioBudgetMs = map[string]float64{"ttsa": float64(scale)}
		return h
	}
	hs := []cran.Health{shard(1), shard(10)}
	got := mergeHealth(hs)
	v := reflect.ValueOf(got.Stats)
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if notSummed[name] || !(f.CanInt() || f.CanUint() || f.CanFloat()) {
			continue
		}
		want := float64(11 * (i + 1))
		var gotV float64
		switch {
		case f.CanInt():
			gotV = float64(f.Int())
		case f.CanUint():
			gotV = float64(f.Uint())
		default:
			gotV = f.Float()
		}
		if gotV != want {
			t.Errorf("merged %s = %g, want the sum %g", name, gotV, want)
		}
	}
	st := got.Stats
	if st.PortfolioMemberSlots["ttsa"] != 11 || st.PortfolioMemberWins["ttsa"] != 11 || st.PortfolioBudgetMs["ttsa"] != 11 {
		t.Errorf("portfolio maps merged to %v / %v / %v, want 11 each",
			st.PortfolioMemberSlots, st.PortfolioMemberWins, st.PortfolioBudgetMs)
	}
	st.PortfolioMemberSlots["ttsa"] = 0
	if hs[0].Stats.PortfolioMemberSlots["ttsa"] != 1 {
		t.Error("merged portfolio map aliases shard 0's")
	}
}
