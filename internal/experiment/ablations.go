package experiment

import (
	"fmt"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/report"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// Ablations lists the design-choice experiments that go beyond the paper's
// figures (DESIGN.md Section 5).
func Ablations() []string {
	return []string{"abl-cooling", "abl-moves", "abl-eviction", "abl-multistart"}
}

// RunAblation dispatches an ablation id to its generator.
func RunAblation(id string, opts Options) ([]report.Table, error) {
	switch id {
	case "abl-cooling":
		return AblationCooling(opts)
	case "abl-moves":
		return AblationMoves(opts)
	case "abl-eviction":
		return AblationEviction(opts)
	case "abl-multistart":
		return AblationMultiStart(opts)
	default:
		return nil, fmt.Errorf("experiment: unknown ablation %q (known: %v)", id, Ablations())
	}
}

// ablationSweep sweeps the schemes over the user count on the default
// network with a moderately heavy workload, where search quality
// differences show.
func ablationSweep(opts Options, title, yLabel string, schemes []Scheme, metric Metric) (report.Table, error) {
	userCounts := []float64{20, 40, 60, 80}
	if opts.Quick {
		userCounts = []float64{20, 40}
	}
	base := scenario.DefaultParams()
	base.Workload.WorkCycles = 2500 * units.Megacycle
	points, err := Points(base, "users", userCounts)
	if err != nil {
		return report.Table{}, err
	}
	return Sweep(opts, title, "users", yLabel, schemes, points, metric)
}

func ttsaVariant(name string, mutate func(*core.Config)) (Scheme, error) {
	cfg := core.DefaultConfig()
	mutate(&cfg)
	ts, err := core.New(cfg)
	if err != nil {
		return Scheme{}, err
	}
	return Scheme{Name: name, Scheduler: ts}, nil
}

// AblationCooling compares the threshold-triggered cooling of Algorithm 1
// against plain simulated annealing (α₁ only) on both achieved utility and
// solve time.
func AblationCooling(opts Options) ([]report.Table, error) {
	threshold, err := ttsaVariant("TTSA", func(*core.Config) {})
	if err != nil {
		return nil, err
	}
	plain, err := ttsaVariant("plain-SA", func(c *core.Config) { c.DisableThreshold = true })
	if err != nil {
		return nil, err
	}
	schemes := []Scheme{threshold, plain}
	utility, err := ablationSweep(opts, "Ablation: threshold-triggered vs plain cooling (utility)",
		"system utility", schemes, UtilityMetric)
	if err != nil {
		return nil, err
	}
	timing, err := ablationSweep(opts, "Ablation: threshold-triggered vs plain cooling (solve time)",
		"computation time [s]", schemes, TimeMetric)
	if err != nil {
		return nil, err
	}
	return []report.Table{utility, timing}, nil
}

// AblationMoves compares the Algorithm 2 move mix against degenerate
// single-move neighbourhoods at a fixed evaluation budget.
func AblationMoves(opts Options) ([]report.Table, error) {
	const budget = 10000
	mixes := []struct {
		name  string
		moves core.MoveWeights
	}{
		{name: "paper-mix", moves: core.DefaultConfig().Moves},
		{name: "server-only", moves: core.MoveWeights{MoveServer: 1}},
		{name: "swap+toggle", moves: core.MoveWeights{Swap: 0.95, Toggle: 0.05}},
		{name: "toggle-only", moves: core.MoveWeights{Toggle: 1}},
	}
	schemes := make([]Scheme, 0, len(mixes))
	for _, mix := range mixes {
		moves := mix.moves
		sch, err := ttsaVariant(mix.name, func(c *core.Config) {
			c.Moves = moves
			c.MaxEvaluations = budget
		})
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, sch)
	}
	t, err := ablationSweep(opts, fmt.Sprintf("Ablation: neighbourhood move mix (budget %d evaluations)", budget),
		"system utility", schemes, UtilityMetric)
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}

// AblationEviction compares displacing occupants to local execution
// against rejecting moves into occupied slots, on congested networks.
func AblationEviction(opts Options) ([]report.Table, error) {
	evict, err := ttsaVariant("evict", func(c *core.Config) { c.MaxEvaluations = 10000 })
	if err != nil {
		return nil, err
	}
	reject, err := ttsaVariant("reject", func(c *core.Config) {
		c.DisableEviction = true
		c.MaxEvaluations = 10000
	})
	if err != nil {
		return nil, err
	}
	t, err := ablationSweep(opts, "Ablation: eviction vs rejection on occupied slots",
		"system utility", []Scheme{evict, reject}, UtilityMetric)
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}

// AblationMultiStart compares one full-budget chain against a portfolio of
// four quarter-budget chains (same total evaluations), plus the
// LocalSearch baseline at the full budget for scale.
func AblationMultiStart(opts Options) ([]report.Table, error) {
	const budget = 12000
	single, err := ttsaVariant("1-chain", func(c *core.Config) { c.MaxEvaluations = budget })
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = budget / 4
	ms, err := portfolio.New(cfg, solver.PortfolioOptions{Chains: 4})
	if err != nil {
		return nil, err
	}
	lsCfg := baseline.DefaultLocalSearchConfig()
	lsCfg.MaxIterations = budget
	ls, err := baseline.NewLocalSearch(lsCfg)
	if err != nil {
		return nil, err
	}
	schemes := []Scheme{
		single,
		{Name: "4-chains", Scheduler: ms},
		{Name: ls.Name(), Scheduler: ls},
	}
	t, err := ablationSweep(opts, fmt.Sprintf("Ablation: multi-start vs single chain (total budget %d)", budget),
		"system utility", schemes, UtilityMetric)
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}
