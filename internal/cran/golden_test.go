package cran

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/solver"
)

// goldenRounds is how many rounds of deltaDiffRequests each golden config
// serves: enough for cadence full epochs, repairs and the movers crossing
// into a neighbouring cell.
const goldenRounds = 8

// TestAdaptiveServingIndependentOfWorkers serves more rounds than the
// selector lag, so the adaptive selector learns from earlier outcomes, on
// a queue shallow enough (QueueDepth 4) that a lag derived from the
// pipeline depth would differ between 1 and 4 workers. Every worker count
// and codec must still dump the same decisions and member counts.
func TestAdaptiveServingIndependentOfWorkers(t *testing.T) {
	var first string
	for _, workers := range []int{1, 4} {
		for _, protocol := range []string{ProtoJSON, ProtoBinary} {
			cfg := goldenServerConfig(workers)
			cfg.QueueDepth = 4
			cfg.Portfolio = &solver.PortfolioOptions{Chains: 3, Adaptive: true}
			dump := goldenDump(t, cfg, protocol, servingSelectorLag+8)
			if first == "" {
				first = dump
			} else if dump != first {
				t.Errorf("workers=%d %s diverged from workers=1 json:\n--- got ---\n%s--- want ---\n%s",
					workers, protocol, dump, first)
			}
		}
	}
}

// goldenServingConfigs are the serving modes pinned by
// TestServingDecisionsGolden, each applied to the delta suite's base
// coordinator (three cells, one round per epoch).
var goldenServingConfigs = []struct {
	name   string
	mutate func(*ServerConfig)
}{
	{"plain", func(*ServerConfig) {}},
	{"delta", func(c *ServerConfig) { c.Delta = deltaAt(deltaDiffThreshold) }},
	{"portfolio-fixed", func(c *ServerConfig) { c.Portfolio = &solver.PortfolioOptions{Chains: 3} }},
	{"portfolio-adaptive", func(c *ServerConfig) {
		c.Portfolio = &solver.PortfolioOptions{Chains: 3, Adaptive: true}
	}},
	{"brownout-idle", func(c *ServerConfig) { c.Brownout = BrownoutConfig{Enabled: true} }},
	{"partitioned", func(c *ServerConfig) { c.Partition = goldenPartition() }},
	{"partitioned-delta", func(c *ServerConfig) {
		c.Partition = goldenPartition()
		c.Delta = deltaAt(deltaDiffThreshold)
	}},
	{"partitioned-adaptive", func(c *ServerConfig) {
		c.Partition = goldenPartition()
		c.Portfolio = &solver.PortfolioOptions{Chains: 3, Adaptive: true}
	}},
}

func goldenPartition() *PartitionConfig {
	return &PartitionConfig{Shards: 1, Index: 0, Assignment: []int{0, 0, 0}}
}

// goldenServerConfig is the delta suite's coordinator: MaxBatch is one
// round, so the 1-hour window never decides epoch composition, and the
// queue is deep enough that an idle brownout controller never degrades.
func goldenServerConfig(workers int) ServerConfig {
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = 1200
	return ServerConfig{
		Params:      deltaDiffParams(),
		BatchWindow: time.Hour,
		MaxBatch:    deltaDiffUsers,
		TTSA:        &ttsaCfg,
		Seed:        deltaDiffSeed,
		Workers:     workers,
		QueueDepth:  32,
	}
}

// goldenDump serves rounds rounds on a fresh coordinator and renders
// every decision, in (round, user) order, plus the delta counters and the
// portfolio members' slot and win counts. Floats print in %x so the dump
// is exact.
func goldenDump(t *testing.T, cfg ServerConfig, protocol string, rounds int) string {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	var b strings.Builder
	for r := 1; r <= rounds; r++ {
		got := runDeltaRound(t, srv, protocol, deltaDiffRequests(r))
		users := make([]string, 0, len(got))
		for u := range got {
			users = append(users, u)
		}
		sort.Strings(users)
		for _, u := range users {
			d := got[u]
			fmt.Fprintf(&b, "r%d %s epoch=%d offload=%t server=%d channel=%d f=%x delay=%x energy=%x utility=%x\n",
				r, u, d.Epoch, d.Offload, d.Server, d.Channel, d.FUsHz, d.DelayS, d.EnergyJ, d.Utility)
		}
	}
	st := srv.Stats()
	fmt.Fprintf(&b, "delta full=%d repair=%d dirty=%d reused=%d\n",
		st.DeltaFullEpochs, st.DeltaRepairEpochs, st.DeltaDirtyUsers, st.DeltaRowsReused)
	members := make([]string, 0, len(st.PortfolioMemberSlots))
	for m := range st.PortfolioMemberSlots {
		members = append(members, m)
	}
	sort.Strings(members)
	for _, m := range members {
		fmt.Fprintf(&b, "member %s slots=%d wins=%d\n", m, st.PortfolioMemberSlots[m], st.PortfolioMemberWins[m])
	}
	return b.String()
}

// TestServingDecisionsGolden pins every serving mode's decisions to a
// checked-in dump: each config, served by 1 and 4 solver workers over both
// codecs, must reproduce testdata/serving_golden.txt byte for byte. A
// refactor of the serving path that keeps behaviour keeps this file.
func TestServingDecisionsGolden(t *testing.T) {
	var all strings.Builder
	for _, gc := range goldenServingConfigs {
		var first string
		for _, workers := range []int{1, 4} {
			for _, protocol := range []string{ProtoJSON, ProtoBinary} {
				cfg := goldenServerConfig(workers)
				gc.mutate(&cfg)
				dump := goldenDump(t, cfg, protocol, goldenRounds)
				if first == "" {
					first = dump
				} else if dump != first {
					t.Errorf("%s: workers=%d %s diverged from workers=1 json:\n--- got ---\n%s--- want ---\n%s",
						gc.name, workers, protocol, dump, first)
				}
			}
		}
		fmt.Fprintf(&all, "== %s\n%s", gc.name, first)
	}

	path := filepath.Join("testdata", "serving_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/cran -run TestServingDecisionsGolden -update` to create it)", err)
	}
	if got := all.String(); got != string(want) {
		t.Errorf("serving decisions drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
