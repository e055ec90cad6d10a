package experiment

import (
	"fmt"
	"strings"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// ComparisonSchemes lists the standard scheme set of Figs. 4–8 and the
// default of a custom sweep: TSAJS, hJTORA, LocalSearch and Greedy (the
// exhaustive optimum only appears in the small-network Fig. 3).
func ComparisonSchemes() []string { return []string{"tsajs", "hjtora", "localsearch", "greedy"} }

// schemes maps every scheme name NewScheme accepts onto its builder; the
// builders take the TTSA inner-loop length L and the run's options.
var schemes = map[string]func(innerL int, opts Options) (Scheme, error){
	"tsajs": func(innerL int, opts Options) (Scheme, error) { return ttsa("TSAJS", innerL, opts) },
	"tsajs-ms": func(innerL int, opts Options) (Scheme, error) {
		opts.Chains = 4
		return ttsa("TSAJS-MS", innerL, opts)
	},
	"exhaustive":  func(int, Options) (Scheme, error) { return Scheme{"Exhaustive", &baseline.Exhaustive{}}, nil },
	"hjtora":      func(int, Options) (Scheme, error) { return Scheme{"hJTORA", &baseline.HJTORA{}}, nil },
	"localsearch": func(_ int, opts Options) (Scheme, error) { return localSearch(opts.Quick) },
	"greedy":      func(int, Options) (Scheme, error) { return Scheme{"Greedy", &baseline.Greedy{}}, nil },
}

// schemeAliases are tsajs-solve's historical alternative names.
var schemeAliases = map[string]string{"ttsa": "tsajs", "optimal": "exhaustive", "local": "localsearch"}

// SchemeNames lists the scheme names NewScheme accepts, aliases aside.
func SchemeNames() []string {
	return []string{"tsajs", "tsajs-ms", "exhaustive", "hjtora", "localsearch", "greedy"}
}

// NewScheme builds the named scheduler, in any case: tsajs (alias ttsa),
// tsajs-ms (a four-chain TSAJS portfolio), exhaustive (optimal), hjtora,
// localsearch (local) or greedy. innerL is the TTSA inner-loop length L (0
// keeps the default 30); opts.Quick shrinks the TSAJS and LocalSearch
// budgets, and opts.Chains > 1 solves tsajs as a K-chain portfolio.
func NewScheme(name string, innerL int, opts Options) (Scheme, error) {
	key := strings.ToLower(name)
	if alias, ok := schemeAliases[key]; ok {
		key = alias
	}
	build, ok := schemes[key]
	if !ok {
		return Scheme{}, fmt.Errorf("experiment: unknown scheme %q (want one of %v)", name, SchemeNames())
	}
	if innerL == 0 {
		innerL = core.DefaultConfig().InnerIterations
	}
	return build(innerL, opts)
}

// NewSchemes builds each named scheme in order (see NewScheme).
func NewSchemes(innerL int, opts Options, names ...string) ([]Scheme, error) {
	out := make([]Scheme, len(names))
	for i, name := range names {
		sch, err := NewScheme(name, innerL, opts)
		if err != nil {
			return nil, err
		}
		out[i] = sch
	}
	return out, nil
}

// ttsa builds a TSAJS scheme with inner-loop length innerL, reduced search
// budget in quick mode, and — when opts.Chains > 1 — the per-solve
// multi-restart portfolio in place of the single sequential chain.
func ttsa(name string, innerL int, opts Options) (Scheme, error) {
	cfg := core.DefaultConfig()
	cfg.InnerIterations = innerL
	if opts.Quick {
		cfg.MaxEvaluations = 2500
	}
	if opts.Chains > 1 {
		pf, err := portfolio.New(cfg, solver.PortfolioOptions{Chains: opts.Chains})
		if err != nil {
			return Scheme{}, err
		}
		return Scheme{Name: name, Scheduler: pf}, nil
	}
	t, err := core.New(cfg)
	if err != nil {
		return Scheme{}, err
	}
	return Scheme{Name: name, Scheduler: t}, nil
}

func localSearch(quick bool) (Scheme, error) {
	cfg := baseline.DefaultLocalSearchConfig()
	if quick {
		cfg.MaxIterations = 2500
		cfg.Patience = 500
	}
	ls, err := baseline.NewLocalSearch(cfg)
	if err != nil {
		return Scheme{}, err
	}
	return Scheme{Name: ls.Name(), Scheduler: ls}, nil
}

// sweepSetters maps sweep names onto parameter mutations.
var sweepSetters = map[string]func(*scenario.Params, float64) error{
	"users": func(p *scenario.Params, v float64) error {
		p.NumUsers = int(v)
		return intCheck("users", v)
	},
	"servers": func(p *scenario.Params, v float64) error {
		p.NumServers = int(v)
		return intCheck("servers", v)
	},
	"channels": func(p *scenario.Params, v float64) error {
		p.NumChannels = int(v)
		return intCheck("channels", v)
	},
	"dataKB": func(p *scenario.Params, v float64) error {
		p.Workload.DataBits = v * units.KB
		return nil
	},
	"workMcycles": func(p *scenario.Params, v float64) error {
		p.Workload.WorkCycles = v * units.Megacycle
		return nil
	},
	"betaTime": func(p *scenario.Params, v float64) error {
		p.BetaTime = v
		return nil
	},
	"txPowerDBm": func(p *scenario.Params, v float64) error {
		p.TxPowerDBm = v
		return nil
	},
}

func intCheck(name string, v float64) error {
	if v != float64(int(v)) || v <= 0 {
		return fmt.Errorf("experiment: sweep %q needs positive integers, got %g", name, v)
	}
	return nil
}

// SweepNames lists the parameters Points can sweep.
func SweepNames() []string {
	return []string{"users", "servers", "channels", "dataKB", "workMcycles", "betaTime", "txPowerDBm"}
}

// Points builds one sweep point per value: base with the swept parameter
// (one of SweepNames) set to that value, which is also the point's x.
func Points(base scenario.Params, sweep string, values []float64) ([]Point, error) {
	set, ok := sweepSetters[sweep]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown sweep %q (want one of %v)", sweep, SweepNames())
	}
	points := make([]Point, len(values))
	for i, v := range values {
		p := base
		if err := set(&p, v); err != nil {
			return nil, err
		}
		points[i] = Point{X: v, Params: p}
	}
	return points, nil
}
