package cran

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/task"
)

// The delta differential scenario: six users on a 3-cell network, five
// rounds. Two designated movers displace 0.1 km per round (beyond the
// 0.02 km threshold), everyone else creeps 0.5 m (below it), so with
// FullEvery=3 rounds 1 and 4 full-solve on cadence and rounds 2, 3, 5
// repair a 2-user dirty set. The reference coordinator is the same server
// with threshold 0: every user dirty every round, every round a full
// solve from the same per-(epoch,user) gain streams.

const (
	deltaDiffUsers     = 6
	deltaDiffRounds    = 5
	deltaDiffSeed      = 7
	deltaDiffThreshold = 0.02
	deltaDiffFullEvery = 3
)

func deltaDiffParams() scenario.Params {
	p := scenario.DefaultParams()
	p.NumServers = 3
	p.NumChannels = 2
	p.InterSiteKm = 1.0
	return p
}

// deltaDiffRequests builds round r's request set: user u starts near site
// u%3; movers (u < 2) displace 0.1 km per round, everyone else 0.5 m.
func deltaDiffRequests(round int) []OffloadRequest {
	sites := geom.HexLayout(3, 1.0)
	reqs := make([]OffloadRequest, 0, deltaDiffUsers)
	for u := 0; u < deltaDiffUsers; u++ {
		step := 0.0005
		if u < 2 {
			step = 0.1
		}
		base := sites[u%3]
		reqs = append(reqs, OffloadRequest{
			UserID: fmt.Sprintf("du-%d", u),
			Pos: geom.Point{
				X: base.X + 0.05 + float64(round-1)*step,
				Y: base.Y + 0.02*float64(u),
			},
			Task: task.Task{DataBits: 420 * 8 * 1024, WorkCycles: 3000e6},
		})
	}
	return reqs
}

// deltaDecision is the comparable projection of a scheduling response.
type deltaDecision struct {
	Offload         bool
	Server, Channel int
	FUsHz           float64
	DelayS, EnergyJ float64
	Utility         float64
	Epoch           uint64
}

func toDeltaDecision(resp OffloadResponse) deltaDecision {
	return deltaDecision{
		Offload: resp.Offload,
		Server:  resp.Server,
		Channel: resp.Channel,
		FUsHz:   resp.FUsHz,
		DelayS:  resp.ExpectedDelayS,
		EnergyJ: resp.ExpectedEnergyJ,
		Utility: resp.Utility,
		Epoch:   resp.Epoch,
	}
}

// deltaAt is the suite's delta config at the given movement threshold.
func deltaAt(thresholdKm float64) *delta.Config {
	return &delta.Config{MoveThresholdKm: thresholdKm, FullEvery: deltaDiffFullEvery}
}

// startDeltaServer boots a coordinator with the given delta config (nil:
// plain) whose MaxBatch is exactly the per-round request count, so the
// 1-hour batch window never decides epoch composition and every round is
// one epoch.
func startDeltaServer(t *testing.T, workers int, dcfg *delta.Config) *Server {
	t.Helper()
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = 1200
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Params:      deltaDiffParams(),
		BatchWindow: time.Hour,
		MaxBatch:    deltaDiffUsers,
		TTSA:        &ttsaCfg,
		Seed:        deltaDiffSeed,
		Workers:     workers,
		QueueDepth:  32,
		Delta:       dcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// runDeltaRound fans one round's requests at the server concurrently over
// the given protocol and returns each user's decision. The JSON leg opens
// one connection per request (a JSON connection is one request per round
// trip, and the epoch flushes only when all requests arrived); the binary
// leg multiplexes every request over one connection.
func runDeltaRound(t *testing.T, srv *Server, protocol string, reqs []OffloadRequest) map[string]deltaDecision {
	t.Helper()
	addr := srv.Addr().String()
	out := make(map[string]deltaDecision, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup

	var mux *Client
	if protocol == ProtoBinary {
		var err error
		mux, err = DialBinary(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = mux.Close() }()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, req := range reqs {
		wg.Add(1)
		go func(req OffloadRequest) {
			defer wg.Done()
			var resp OffloadResponse
			var err error
			if mux != nil {
				resp, err = mux.Offload(ctx, req)
			} else {
				conn, derr := Dial(addr)
				if derr != nil {
					err = derr
				} else {
					resp, err = conn.Offload(ctx, req)
					_ = conn.Close()
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Errorf("user %s: %v", req.UserID, err)
				return
			}
			out[req.UserID] = toDeltaDecision(resp)
		}(req)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("round failed")
	}
	return out
}

// runDeltaMatrixCase drives all rounds against a fresh server and returns
// the merged decision map keyed "r{round}/{user}" plus the final stats.
func runDeltaMatrixCase(t *testing.T, workers int, protocol string, dcfg *delta.Config) (map[string]deltaDecision, Stats) {
	t.Helper()
	srv := startDeltaServer(t, workers, dcfg)
	out := make(map[string]deltaDecision, deltaDiffRounds*deltaDiffUsers)
	for r := 1; r <= deltaDiffRounds; r++ {
		for user, d := range runDeltaRound(t, srv, protocol, deltaDiffRequests(r)) {
			if d.Epoch != uint64(r) {
				t.Errorf("round %d, user %s: epoch %d", r, user, d.Epoch)
			}
			out[fmt.Sprintf("r%d/%s", r, user)] = d
		}
	}
	return out, srv.Stats()
}

// TestDeltaServingDifferential is the serving-side differential gate: a
// delta coordinator's decisions are bit-identical across solver worker
// counts 1/4 and both wire codecs; its cadence full epochs are
// bit-identical to the threshold-0 reference coordinator (which
// full-solves every epoch from the same per-user gain streams), as is
// every epoch of a plain coordinator; and its repair epochs stay within the
// documented utility tolerance of the reference's full solves.
func TestDeltaServingDifferential(t *testing.T) {
	type variant struct {
		workers  int
		protocol string
	}
	variants := []variant{
		{1, ProtoJSON}, {1, ProtoBinary}, {4, ProtoJSON}, {4, ProtoBinary},
	}

	ref, refStats := runDeltaMatrixCase(t, variants[0].workers, variants[0].protocol, deltaAt(0))
	if len(ref) != deltaDiffRounds*deltaDiffUsers {
		t.Fatalf("reference answered %d decisions, want %d", len(ref), deltaDiffRounds*deltaDiffUsers)
	}
	if refStats.DeltaFullEpochs != deltaDiffRounds || refStats.DeltaRepairEpochs != 0 {
		t.Fatalf("threshold-0 reference ran %d full / %d repair epochs, want %d/0",
			refStats.DeltaFullEpochs, refStats.DeltaRepairEpochs, deltaDiffRounds)
	}

	// Reference determinism across workers and codecs.
	for _, v := range variants[1:] {
		v := v
		t.Run(fmt.Sprintf("ref_workers%d_%s", v.workers, v.protocol), func(t *testing.T) {
			got, _ := runDeltaMatrixCase(t, v.workers, v.protocol, deltaAt(0))
			diffDeltaMaps(t, got, ref)
		})
	}

	// A plain coordinator draws every row from the same per-user streams
	// and full-solves every epoch: bit-identical to the reference.
	for _, v := range variants {
		v := v
		t.Run(fmt.Sprintf("plain_workers%d_%s", v.workers, v.protocol), func(t *testing.T) {
			got, _ := runDeltaMatrixCase(t, v.workers, v.protocol, nil)
			diffDeltaMaps(t, got, ref)
		})
	}

	// The repair run: same matrix, every variant bit-identical to the
	// first, and the classification split exactly as constructed.
	first, firstStats := runDeltaMatrixCase(t, variants[0].workers, variants[0].protocol, deltaAt(deltaDiffThreshold))
	wantFull := uint64(0)
	for r := 1; r <= deltaDiffRounds; r++ {
		if (r-1)%deltaDiffFullEvery == 0 {
			wantFull++
		}
	}
	if firstStats.DeltaFullEpochs != wantFull ||
		firstStats.DeltaRepairEpochs != uint64(deltaDiffRounds)-wantFull {
		t.Fatalf("delta run split %d full / %d repair, want %d/%d",
			firstStats.DeltaFullEpochs, firstStats.DeltaRepairEpochs,
			wantFull, uint64(deltaDiffRounds)-wantFull)
	}
	if firstStats.DeltaRowsReused == 0 {
		t.Error("repair epochs reused no cached gain rows")
	}
	if firstStats.DeltaDirtyUsers >= refStats.DeltaDirtyUsers {
		t.Errorf("delta run refreshed %d rows, reference %d — no work saved",
			firstStats.DeltaDirtyUsers, refStats.DeltaDirtyUsers)
	}
	for _, v := range variants[1:] {
		v := v
		t.Run(fmt.Sprintf("delta_workers%d_%s", v.workers, v.protocol), func(t *testing.T) {
			got, stats := runDeltaMatrixCase(t, v.workers, v.protocol, deltaAt(deltaDiffThreshold))
			diffDeltaMaps(t, got, first)
			if stats.DeltaFullEpochs != firstStats.DeltaFullEpochs ||
				stats.DeltaRepairEpochs != firstStats.DeltaRepairEpochs ||
				stats.DeltaDirtyUsers != firstStats.DeltaDirtyUsers {
				t.Errorf("classification diverged: %d/%d/%d vs %d/%d/%d",
					stats.DeltaFullEpochs, stats.DeltaRepairEpochs, stats.DeltaDirtyUsers,
					firstStats.DeltaFullEpochs, firstStats.DeltaRepairEpochs, firstStats.DeltaDirtyUsers)
			}
		})
	}

	// Cadence full epochs are bit-identical to the reference; repair
	// epochs stay within the documented tolerance (65% per epoch).
	for r := 1; r <= deltaDiffRounds; r++ {
		fullRound := (r-1)%deltaDiffFullEvery == 0
		var gotSum, refSum float64
		for u := 0; u < deltaDiffUsers; u++ {
			key := fmt.Sprintf("r%d/du-%d", r, u)
			d, rd := first[key], ref[key]
			gotSum += d.Utility
			refSum += rd.Utility
			if fullRound && d != rd {
				t.Errorf("full round %d, %s: decision diverged from reference\n got %+v\nwant %+v", r, key, d, rd)
			}
		}
		if !fullRound && refSum > 0 {
			if ratio := gotSum / refSum; ratio < 0.65 {
				t.Errorf("repair round %d utility %.4f below tolerance vs full %.4f (ratio %.3f)",
					r, gotSum, refSum, ratio)
			}
		}
	}
}

func diffDeltaMaps(t *testing.T, got, want map[string]deltaDecision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("answered %d decisions, want %d", len(got), len(want))
	}
	for key, w := range want {
		if d, ok := got[key]; !ok {
			t.Errorf("%s: missing decision", key)
		} else if d != w {
			t.Errorf("%s: decision diverged\n got %+v\nwant %+v", key, d, w)
		}
	}
}

// TestDeltaPartitionedServing exercises the per-cell delta chains: a
// single-shard partitioned coordinator solves each cell as its own chain,
// repair epochs and all, with decisions bit-identical across worker
// counts.
func TestDeltaPartitionedServing(t *testing.T) {
	run := func(workers int) (map[string]deltaDecision, Stats) {
		ttsaCfg := core.DefaultConfig()
		ttsaCfg.MaxEvaluations = 1200
		srv, err := NewServer("127.0.0.1:0", ServerConfig{
			Params:      deltaDiffParams(),
			BatchWindow: time.Hour,
			MaxBatch:    6, // the whole round: the flush splits it into per-cell epochs
			TTSA:        &ttsaCfg,
			Seed:        deltaDiffSeed,
			Workers:     workers,
			QueueDepth:  32,
			Partition:   &PartitionConfig{Shards: 1, Index: 0, Assignment: []int{0, 0, 0}},
			Delta: &delta.Config{
				MoveThresholdKm: deltaDiffThreshold,
				FullEvery:       deltaDiffFullEvery,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = srv.Close() }()
		sites := geom.HexLayout(3, 1.0)
		out := make(map[string]deltaDecision)
		for r := 1; r <= 4; r++ {
			// Two users per cell; the first moves 0.1 km per round, the
			// second holds still — rounds off the cadence repair a one-user
			// dirty set per cell.
			var reqs []OffloadRequest
			for cell := 0; cell < 3; cell++ {
				for k := 0; k < 2; k++ {
					step := 0.0
					if k == 0 {
						step = 0.05
					}
					reqs = append(reqs, OffloadRequest{
						UserID: fmt.Sprintf("pu-%d-%d", cell, k),
						Pos: geom.Point{
							X: sites[cell].X + 0.04 + float64(r-1)*step,
							Y: sites[cell].Y + 0.06*float64(k),
						},
						Task: task.Task{DataBits: 300 * 8 * 1024, WorkCycles: 2000e6},
					})
				}
			}
			for user, d := range runDeltaRound(t, srv, ProtoJSON, reqs) {
				if d.Epoch != uint64(r) {
					t.Errorf("round %d, user %s: cell epoch %d", r, user, d.Epoch)
				}
				out[fmt.Sprintf("r%d/%s", r, user)] = d
			}
		}
		return out, srv.Stats()
	}

	ref, refStats := run(1)
	if refStats.DeltaRepairEpochs == 0 {
		t.Fatalf("partitioned delta run never repaired: %+v", refStats)
	}
	got, gotStats := run(4)
	diffDeltaMaps(t, got, ref)
	if gotStats.DeltaFullEpochs != refStats.DeltaFullEpochs ||
		gotStats.DeltaRepairEpochs != refStats.DeltaRepairEpochs {
		t.Errorf("worker counts classified differently: %d/%d vs %d/%d",
			gotStats.DeltaFullEpochs, gotStats.DeltaRepairEpochs,
			refStats.DeltaFullEpochs, refStats.DeltaRepairEpochs)
	}
}

// TestDeltaChainSequencer covers the chain's ordering machinery directly:
// out-of-order acquires block until earlier epochs advance or are
// skipped, and close releases every waiter with a shutdown verdict.
func TestDeltaChainSequencer(t *testing.T) {
	ch := newChain(-1, nil, &delta.Config{}, nil)
	order := make(chan uint64, 3)
	var wg sync.WaitGroup
	for _, e := range []uint64{3, 2, 1} {
		wg.Add(1)
		go func(e uint64) {
			defer wg.Done()
			if !ch.acquire(e) {
				t.Errorf("epoch %d: chain closed prematurely", e)
				return
			}
			order <- e
			ch.advance()
		}(e)
	}
	wg.Wait()
	close(order)
	want := uint64(1)
	for e := range order {
		if e != want {
			t.Fatalf("epoch %d solved out of order (want %d)", e, want)
		}
		want++
	}

	// Skipping the cursor epoch unblocks the one behind it.
	done := make(chan struct{})
	go func() {
		if ch.acquire(5) {
			ch.advance()
		}
		close(done)
	}()
	ch.skip(4)
	waitUntil(t, 5*time.Second, "epoch 5 to run after epoch 4 skipped", func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})

	// Close releases a waiter on a future epoch with false.
	got := make(chan bool, 1)
	go func() { got <- ch.acquire(99) }()
	ch.close()
	if <-got {
		t.Error("acquire returned true on a closed chain")
	}
}

// TestDeltaServingCadence pins the chain-epoch to cadence-index mapping:
// chain epochs count from 1, so with nobody moving, epochs 1, 1+FullEvery,
// 1+2·FullEvery are the cadence full solves and every other epoch repairs.
func TestDeltaServingCadence(t *testing.T) {
	srv := startDeltaServer(t, 1, deltaAt(deltaDiffThreshold))
	reqs := deltaDiffRequests(1)
	var fulls uint64
	for e := uint64(1); e <= 2*deltaDiffFullEvery+1; e++ {
		runDeltaRound(t, srv, ProtoBinary, reqs)
		st := srv.Stats()
		wantFull := (e-1)%deltaDiffFullEvery == 0
		if gotFull := st.DeltaFullEpochs > fulls; gotFull != wantFull {
			t.Errorf("chain epoch %d: full=%v, want %v", e, gotFull, wantFull)
		}
		fulls = st.DeltaFullEpochs
	}
}
