// Metamorphic properties of the objective: relations that must hold
// between evaluations of transformed instances, checked against both the
// flat-tensor evaluator and the incremental delta evaluator.
package objective_test

import (
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

func buildMeta(t *testing.T, users, servers, channels int, seed uint64) *scenario.Scenario {
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

// relabelServers returns the scenario with server k holding what server
// perm[k] held before — positions, frequency, and the gain slice — plus
// the same decision re-indexed to match.
func relabelServers(t *testing.T, sc *scenario.Scenario, a *assign.Assignment, perm []int) (*scenario.Scenario, *assign.Assignment) {
	t.Helper()
	if len(perm) != sc.S() {
		t.Fatalf("permutation length %d != %d servers", len(perm), sc.S())
	}
	servers := make([]scenario.Server, sc.S())
	nested := sc.Gain.Nested()
	permuted := make([][][]float64, sc.U())
	for u := range permuted {
		permuted[u] = make([][]float64, sc.S())
	}
	newIndex := make([]int, sc.S())
	for k, orig := range perm {
		servers[k] = sc.Servers[orig]
		newIndex[orig] = k
		for u := 0; u < sc.U(); u++ {
			permuted[u][k] = nested[u][orig]
		}
	}
	gain, err := radio.TensorFromNested(permuted)
	if err != nil {
		t.Fatal(err)
	}
	out := &scenario.Scenario{
		Users:           append([]scenario.User(nil), sc.Users...),
		Servers:         servers,
		Gain:            gain,
		Model:           sc.Model,
		NumChannels:     sc.NumChannels,
		BandwidthHz:     sc.BandwidthHz,
		NoiseW:          sc.NoiseW,
		DownlinkRateBps: sc.DownlinkRateBps,
		Seed:            sc.Seed,
	}
	if err := out.Finalize(); err != nil {
		t.Fatal(err)
	}
	mapped, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < sc.U(); u++ {
		if s, j := a.SlotOf(u); s != assign.Local {
			if err := mapped.Offload(u, newIndex[s], j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out, mapped
}

// TestServerRelabelInvariance: a permutation of server indices applied
// consistently to the scenario and the decision is pure bookkeeping — the
// physical system is unchanged, so SystemUtility must not move beyond
// float summation-order noise (relabelling reorders the Λ sum), and the
// incremental evaluator must equal it bit for bit on the relabelled
// instance.
func TestServerRelabelInvariance(t *testing.T) {
	perms := [][]int{
		{3, 0, 2, 1},
		{1, 2, 3, 0},
		{2, 3, 0, 1},
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		sc := buildMeta(t, 10, 4, 2, seed)
		a, err := solver.RandomFeasible(sc, simrand.New(seed+100), 0.8)
		if err != nil {
			t.Fatal(err)
		}
		base := objective.New(sc).SystemUtility(a)
		for _, perm := range perms {
			sc2, a2 := relabelServers(t, sc, a, perm)
			tol := 1e-9 * math.Max(1, math.Abs(base))
			got := objective.New(sc2).SystemUtility(a2)
			if math.Abs(got-base) > tol {
				t.Errorf("seed %d perm %v: flat utility %v != %v", seed, perm, got, base)
			}
			if inc := objective.NewIncremental(sc2, a2).Utility(); math.Float64bits(inc) != math.Float64bits(got) {
				t.Errorf("seed %d perm %v: incremental utility %.17g differs from flat %.17g", seed, perm, inc, got)
			}
		}
	}
}

// scaleDataBits rebuilds sc's instance with every task's input size
// multiplied by c and derived values refreshed.
func scaleDataBits(t *testing.T, sc *scenario.Scenario, c float64) *scenario.Scenario {
	t.Helper()
	users := append([]scenario.User(nil), sc.Users...)
	for i := range users {
		users[i].Task.DataBits *= c
	}
	out := &scenario.Scenario{
		Users:           users,
		Servers:         append([]scenario.Server(nil), sc.Servers...),
		Gain:            sc.Gain,
		Model:           sc.Model,
		NumChannels:     sc.NumChannels,
		BandwidthHz:     sc.BandwidthHz,
		NoiseW:          sc.NoiseW,
		DownlinkRateBps: sc.DownlinkRateBps,
		Seed:            sc.Seed,
	}
	if err := out.Finalize(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDataScalingNeverImprovesUtility: inflating every task's input size
// by a constant c > 1 makes every upload strictly slower and costlier
// while the local alternative is untouched (t_local depends on w_u only),
// so (a) any fixed decision's utility is non-increasing (and the
// incremental evaluator equals it bit for bit), and (b) the exhaustive
// optimum over all decisions is non-increasing too.
func TestDataScalingNeverImprovesUtility(t *testing.T) {
	exhaustive := &baseline.Exhaustive{}
	for _, seed := range []uint64{1, 2, 3} {
		sc := buildMeta(t, 4, 2, 2, seed)
		a, err := solver.RandomFeasible(sc, simrand.New(seed+50), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		fixedPrev := objective.New(sc).SystemUtility(a)
		optRes, err := exhaustive.Schedule(sc, simrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		optPrev := optRes.Utility
		for _, c := range []float64{1.5, 2, 4} {
			scaled := scaleDataBits(t, sc, c)
			tol := 1e-9 * math.Max(1, math.Abs(fixedPrev))

			fixed := objective.New(scaled).SystemUtility(a)
			if fixed > fixedPrev+tol {
				t.Errorf("seed %d c=%g: fixed-decision utility rose %v -> %v", seed, c, fixedPrev, fixed)
			}
			if inc := objective.NewIncremental(scaled, a).Utility(); math.Float64bits(inc) != math.Float64bits(fixed) {
				t.Errorf("seed %d c=%g: incremental %.17g differs from flat %.17g", seed, c, inc, fixed)
			}

			res, err := exhaustive.Schedule(scaled, simrand.New(1))
			if err != nil {
				t.Fatal(err)
			}
			if res.Utility > optPrev+tol {
				t.Errorf("seed %d c=%g: optimal utility rose %v -> %v", seed, c, optPrev, res.Utility)
			}
			fixedPrev, optPrev = fixed, res.Utility
		}
	}
}
