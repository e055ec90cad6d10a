package core_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// goldenDigest feeds solve outcomes into one FNV-64a hash and totals the
// evaluations the solves elided in their frozen tails.
type goldenDigest struct {
	h      hash.Hash64
	buf    []byte
	elided int
}

func (d *goldenDigest) int(v int) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], uint64(int64(v)))
	d.h.Write(d.buf)
}

func (d *goldenDigest) float(v float64) { d.int(int(math.Float64bits(v))) }

func (d *goldenDigest) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

// solve digests one result: utility bits, evaluations, the decision, the
// observer's counters, the trace and the rng's next draw.
func (d *goldenDigest) solve(res solver.Result, st solver.SolveStats, trace []core.TracePoint, rng *simrand.Source) {
	d.float(res.Utility)
	d.int(res.Evaluations)
	for u := 0; u < res.Assignment.Users(); u++ {
		s, j := res.Assignment.SlotOf(u)
		d.int(s)
		d.int(j)
	}
	d.int(st.Stages)
	d.int(st.AcceleratedStages)
	d.int(st.Evaluations)
	d.int(st.AcceptedBetter)
	d.int(st.AcceptedWorse)
	d.int(st.Rejected)
	d.int(st.Chains)
	d.float(st.Utility)
	d.elided += st.ElidedEvaluations
	d.int(len(trace))
	for _, p := range trace {
		d.int(p.Stage)
		d.float(p.Temp)
		d.float(p.Current)
		d.float(p.Best)
		d.int(p.Evaluations)
		d.bool(p.Accelerated)
	}
	d.float(rng.Float64())
}

// lastStats returns the single report a solve made to rec and clears it.
func lastStats(t *testing.T, rec *recorder) solver.SolveStats {
	t.Helper()
	if len(rec.stats) != 1 {
		t.Fatalf("solve made %d observer reports, want 1", len(rec.stats))
	}
	st := rec.stats[0]
	rec.stats = rec.stats[:0]
	return st
}

func goldenScenario(t *testing.T, users, servers, channels int, seed uint64) *scenario.Scenario {
	t.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = users
	p.NumServers = servers
	p.NumChannels = channels
	p.Seed = seed
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestTTSAResultsGolden pins Algorithm 1's observable behaviour bit for bit
// across the shapes, evaluation caps, eviction settings and evaluators the
// code base runs: the served 27×9×3 epoch and its uncapped tail, delta
// repairs (cold start, three targets) and warm starts around a masked
// server. A change that claims to leave the anneal's results unchanged
// (for example by skipping work whose outcome is already decided, or by
// pricing candidates incrementally) must leave the digest as it is. The
// elided-evaluation total pins where the frozen tail starts, which the
// digest cannot see.
func TestTTSAResultsGolden(t *testing.T) {
	const want = "0ddf0666d1d09d0a"
	const wantElided = 1244732
	shapes := [][3]int{{27, 9, 3}, {8, 3, 2}, {12, 4, 3}, {20, 2, 4}, {6, 1, 1}, {40, 9, 3}}
	d := &goldenDigest{h: fnv.New64a()}
	rec := &recorder{}
	for _, shape := range shapes {
		for seed := uint64(1); seed <= 6; seed++ {
			sc := goldenScenario(t, shape[0], shape[1], shape[2], seed)
			var incumbent *assign.Assignment
			for _, evict := range []bool{true, false} {
				for _, limit := range []int{0, 2500, 4000, 20000} {
					cfg := core.DefaultConfig()
					cfg.DisableEviction = !evict
					cfg.MaxEvaluations = limit
					ts, err := core.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := simrand.New(seed)
					res, trace, err := ts.WithObserver(rec).ScheduleTrace(sc, rng)
					if err != nil {
						t.Fatal(err)
					}
					d.solve(res, lastStats(t, rec), trace, rng)
					if evict && limit == 0 {
						incumbent = res.Assignment
					}
				}
			}

			// Delta repairs from the uncapped decision: a cold anneal
			// whose moves all start from three dirty users.
			for _, limit := range []int{600, 4000} {
				cfg := core.DefaultConfig()
				cfg.InitialTemp = 0.5
				cfg.MaxEvaluations = limit
				ts, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := simrand.New(seed + 100)
				perm := rng.Perm(sc.U())
				res, err := ts.WithObserver(rec).ScheduleRepair(sc, rng, incumbent, perm[:3])
				if err != nil {
					t.Fatal(err)
				}
				d.solve(res, lastStats(t, rec), nil, rng)
			}

			// Warm start after a server failure: the uncapped decision
			// with server 0 masked out of the capacity.
			if sc.S() > 1 {
				for _, limit := range []int{0, 4000} {
					warm := incumbent.Clone()
					if _, err := warm.MaskServer(0); err != nil {
						t.Fatal(err)
					}
					cfg := core.DefaultConfig()
					cfg.MaxEvaluations = limit
					ts, err := core.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := simrand.New(seed + 200)
					res, err := ts.WithObserver(rec).ScheduleFrom(sc, rng, warm)
					if err != nil {
						t.Fatal(err)
					}
					d.solve(res, lastStats(t, rec), nil, rng)
				}
			}
		}
	}
	if got := fmt.Sprintf("%016x", d.h.Sum64()); got != want {
		t.Errorf("TTSA results digest = %s, want %s", got, want)
	}
	if d.elided != wantElided {
		t.Errorf("frozen tails elided %d evaluations, want %d", d.elided, wantElided)
	}
}
