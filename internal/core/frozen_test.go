package core

import (
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// TestBestDeltaBoundsEveryCandidate is the soundness property behind the
// frozen tail: from any decision, every candidate Apply produces is one the
// sweep priced, and none prices above the sweep's best delta — with a
// masked server, with eviction off, and with the move set restricted to
// repair targets — priced both from scratch and by the tracked evaluator
// the walk uses. The sweep must also leave the decision as it found it and
// price no more candidates than sweepSize counts.
func TestBestDeltaBoundsEveryCandidate(t *testing.T) {
	const draws = 10000
	for _, shape := range [][3]int{{12, 4, 3}, {8, 3, 2}, {6, 1, 1}} {
		p := scenario.DefaultParams()
		p.NumUsers, p.NumServers, p.NumChannels = shape[0], shape[1], shape[2]
		p.Seed = 29
		sc, err := scenario.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		eval := objective.New(sc)
		for seed := uint64(1); seed <= 2; seed++ {
			for _, evict := range []bool{true, false} {
				for _, scoped := range []bool{false, true} {
					rng := simrand.New(seed)
					a, err := solver.RandomFeasible(sc, rng, 0.7)
					if err != nil {
						t.Fatal(err)
					}
					if sc.S() > 1 {
						if _, err := a.MaskServer(rng.Intn(sc.S())); err != nil {
							t.Fatal(err)
						}
					}
					cfg := DefaultConfig()
					cfg.DisableEviction = !evict
					moves := NeighborhoodFor(cfg)
					if scoped {
						moves.targets = rng.Perm(sc.U())[:3]
					}
					var undo Undo
					inc := objective.NewIncremental(sc, a)
					tracked := func(c *assign.Assignment) float64 { return inc.PreviewMoved(c, undo.Users()) }
					for _, ev := range []struct {
						name  string
						price func(*assign.Assignment) float64
					}{{"full", eval.SystemUtility}, {"tracked", tracked}} {
						name, price := ev.name, ev.price
						curJ := price(a)
						before := a.Clone()
						swept := map[string]bool{}
						record := func(c *assign.Assignment) float64 {
							swept[c.String()] = true
							return price(c)
						}
						best, err := moves.bestDelta(a, &undo, record, curJ)
						if err != nil {
							t.Fatal(err)
						}
						if !a.Equal(before) {
							t.Fatalf("%v seed %d: sweep left %v, want %v", shape, seed, a, before)
						}
						if size := moves.sweepSize(a); len(swept) > size {
							t.Errorf("%v seed %d: sweep priced %d candidates, sweepSize counts %d", shape, seed, len(swept), size)
						}
						for i := 0; i < draws; i++ {
							if !moves.Apply(a, rng, &undo) {
								continue
							}
							if !swept[a.String()] {
								t.Fatalf("%v seed %d evict=%v scoped=%v: Apply produced %v, which the sweep did not price",
									shape, seed, evict, scoped, a)
							}
							if d := price(a) - curJ; d > best {
								t.Fatalf("%v seed %d evict=%v scoped=%v %s: candidate %v has delta %g above the sweep's %g",
									shape, seed, evict, scoped, name, a, d, best)
							}
							if err := undo.Revert(a); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
}

// TestUncappedSolveEntersFrozenTail: at the served shape (27 users, 9
// servers, 3 subchannels) the uncapped anneal reaches the frozen tail and
// elides part of its evaluations, while a 4000-evaluation cap stops before
// a sweep could pay for itself.
func TestUncappedSolveEntersFrozenTail(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers, p.NumServers, p.NumChannels = 27, 9, 3
	p.Seed = 3
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 4000} {
		cfg := DefaultConfig()
		cfg.MaxEvaluations = limit
		rec := &statsRecorder{}
		ts, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ts.WithObserver(rec).Schedule(sc, simrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		st := rec.last
		if st.Evaluations != res.Evaluations {
			t.Fatalf("stats count %d evaluations, result %d", st.Evaluations, res.Evaluations)
		}
		switch {
		case limit == 0 && (st.ElidedEvaluations == 0 || st.ElidedEvaluations > st.Rejected):
			t.Errorf("uncapped solve elided %d of %d evaluations (%d rejected), want a frozen tail",
				st.ElidedEvaluations, st.Evaluations, st.Rejected)
		case limit > 0 && st.ElidedEvaluations != 0:
			t.Errorf("cap %d: %d evaluations elided, want none", limit, st.ElidedEvaluations)
		}
	}
}

type statsRecorder struct{ last solver.SolveStats }

func (r *statsRecorder) ObserveSolve(st solver.SolveStats) { r.last = st }
