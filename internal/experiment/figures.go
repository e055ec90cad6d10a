package experiment

import (
	"fmt"
	"sort"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/report"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// Figures lists the reproducible experiment identifiers in paper order.
func Figures() []string {
	return []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
}

// Run dispatches a figure id ("fig3".."fig9") to its generator.
func Run(figure string, opts Options) ([]report.Table, error) {
	switch figure {
	case "fig3":
		return Figure3(opts)
	case "fig4":
		return Figure4(opts)
	case "fig5":
		return Figure5(opts)
	case "fig6":
		return Figure6(opts)
	case "fig7":
		return Figure7(opts)
	case "fig8":
		return Figure8(opts)
	case "fig9":
		return Figure9(opts)
	default:
		return nil, fmt.Errorf("experiment: unknown figure %q (known: %v)", figure, Figures())
	}
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

// comparisonSchemes builds the standard scheme set of Figs. 4–8: TSAJS,
// hJTORA, LocalSearch and Greedy (the exhaustive optimum only appears in
// the small-network Fig. 3).
func comparisonSchemes(innerL int, opts Options) ([]Scheme, error) {
	ts, err := ttsa("TSAJS", innerL, opts)
	if err != nil {
		return nil, err
	}
	ls, err := localSearch(opts.Quick)
	if err != nil {
		return nil, err
	}
	return []Scheme{
		ts,
		{Name: "hJTORA", Scheduler: &baseline.HJTORA{}},
		ls,
		{Name: "Greedy", Scheduler: &baseline.Greedy{}},
	}, nil
}

// Figure3 reproduces the suboptimality analysis: U=6 users in S=4 cells
// with N=2 subchannels, workloads 1000–4000 Megacycles, comparing TSAJS
// against the exhaustive optimum, hJTORA, LocalSearch and Greedy.
func Figure3(opts Options) ([]report.Table, error) {
	schemes, err := comparisonSchemes(30, opts)
	if err != nil {
		return nil, err
	}
	// Insert the exhaustive optimum after TSAJS, as in the figure legend.
	schemes = append([]Scheme{schemes[0], {Name: "Exhaustive", Scheduler: &baseline.Exhaustive{}}}, schemes[1:]...)

	workloads := []float64{1000, 2000, 3000, 4000}
	if opts.Quick {
		workloads = []float64{1000, 4000}
	}
	points := make([]Point, 0, len(workloads))
	for _, w := range workloads {
		p := scenario.DefaultParams()
		p.NumUsers = 6
		p.NumServers = 4
		p.NumChannels = 2
		p.Workload.WorkCycles = w * units.Megacycle
		points = append(points, Point{X: w, Params: p})
	}
	t, err := Sweep(opts, "Fig. 3: average system utility vs task workload (U=6, S=4, N=2)",
		"w [Mcycles]", "system utility", schemes, points, UtilityMetric)
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}

// Figure4 reproduces the user-scaling analysis: system utility vs the
// number of users for workloads 1000/2000/3000 Megacycles and inner-loop
// lengths L=10 and L=30 (six panels).
func Figure4(opts Options) ([]report.Table, error) {
	userCounts := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}
	workloads := []float64{1000, 2000, 3000}
	if opts.Quick {
		userCounts = []float64{10, 30, 50}
		workloads = []float64{1000}
	}
	var tables []report.Table
	for _, w := range workloads {
		for _, innerL := range []int{10, 30} {
			schemes, err := comparisonSchemes(innerL, opts)
			if err != nil {
				return nil, err
			}
			points := make([]Point, 0, len(userCounts))
			for _, u := range userCounts {
				p := scenario.DefaultParams()
				p.NumUsers = int(u)
				p.Workload.WorkCycles = w * units.Megacycle
				points = append(points, Point{X: u, Params: p})
			}
			t, err := Sweep(opts,
				fmt.Sprintf("Fig. 4: average system utility vs number of users (w=%g Mcycles, L=%d)", w, innerL),
				"users", "system utility", schemes, points, UtilityMetric)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// Figure5 reproduces the task-data-size analysis: system utility vs d_u.
func Figure5(opts Options) ([]report.Table, error) {
	schemes, err := comparisonSchemes(30, opts)
	if err != nil {
		return nil, err
	}
	sizesKB := []float64{100, 300, 500, 700, 900, 1100}
	if opts.Quick {
		sizesKB = []float64{100, 900}
	}
	points := make([]Point, 0, len(sizesKB))
	for _, kb := range sizesKB {
		p := scenario.DefaultParams()
		p.Workload.DataBits = kb * units.KB
		points = append(points, Point{X: kb, Params: p})
	}
	t, err := Sweep(opts, "Fig. 5: average system utility vs task data size (U=30, S=9, N=3)",
		"d_u [KB]", "system utility", schemes, points, UtilityMetric)
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}

// Figure6 reproduces the workload analysis at fixed user counts U=50 and
// U=90: system utility vs w_u.
func Figure6(opts Options) ([]report.Table, error) {
	workloads := []float64{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000}
	userCounts := []int{50, 90}
	if opts.Quick {
		workloads = []float64{500, 4000}
		userCounts = []int{50}
	}
	var tables []report.Table
	for _, u := range userCounts {
		schemes, err := comparisonSchemes(30, opts)
		if err != nil {
			return nil, err
		}
		points := make([]Point, 0, len(workloads))
		for _, w := range workloads {
			p := scenario.DefaultParams()
			p.NumUsers = u
			p.Workload.WorkCycles = w * units.Megacycle
			points = append(points, Point{X: w, Params: p})
		}
		t, err := Sweep(opts,
			fmt.Sprintf("Fig. 6: average system utility vs task workload (U=%d)", u),
			"w [Mcycles]", "system utility", schemes, points, UtilityMetric)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Figure7 reproduces the subchannel analysis: system utility vs N for
// L=30 and L=50.
func Figure7(opts Options) ([]report.Table, error) {
	return subchannelSweep(opts, "Fig. 7", "system utility", []int{30, 50}, UtilityMetric)
}

// Figure8 reproduces the computation-time analysis: mean solve time vs N
// for L=10 and L=50.
func Figure8(opts Options) ([]report.Table, error) {
	return subchannelSweep(opts, "Fig. 8", "computation time [s]", []int{10, 50}, TimeMetric)
}

func subchannelSweep(opts Options, figure, yLabel string, innerLs []int, metric Metric) ([]report.Table, error) {
	channels := []float64{1, 2, 3, 5, 10, 20, 30, 50}
	if opts.Quick {
		channels = []float64{2, 10}
	}
	var tables []report.Table
	for _, innerL := range innerLs {
		schemes, err := comparisonSchemes(innerL, opts)
		if err != nil {
			return nil, err
		}
		points := make([]Point, 0, len(channels))
		for _, n := range channels {
			p := scenario.DefaultParams()
			p.NumUsers = 50
			p.NumChannels = int(n)
			points = append(points, Point{X: n, Params: p})
		}
		t, err := Sweep(opts,
			fmt.Sprintf("%s: %s vs number of sub-channels (U=50, L=%d)", figure, yLabel, innerL),
			"subchannels", yLabel, schemes, points, metric)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Figure9 reproduces the preference analysis: sweep β^time from 0.05 to
// 0.95 (β^energy = 1 − β^time) under TSAJS for three user scales,
// reporting (a) mean per-user energy and (b) mean per-user delay.
func Figure9(opts Options) ([]report.Table, error) {
	betas := []float64{0.05, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95}
	scales := []int{30, 60, 90}
	if opts.Quick {
		betas = []float64{0.05, 0.95}
		scales = []int{30}
	}
	panels := []struct {
		title  string
		yLabel string
		metric Metric
	}{
		{"Fig. 9(a): average energy consumption vs beta_time (TSAJS)", "energy [J]", MeanEnergyMetric},
		{"Fig. 9(b): average computation delay vs beta_time (TSAJS)", "delay [s]", MeanDelayMetric},
	}
	var tables []report.Table
	for _, panel := range panels {
		merged := report.Table{
			Title:  panel.title,
			XLabel: "beta_time",
			YLabel: panel.yLabel,
			X:      betas,
		}
		for _, scale := range scales {
			scheme, err := ttsa(fmt.Sprintf("U=%d", scale), 30, opts)
			if err != nil {
				return nil, err
			}
			points := make([]Point, 0, len(betas))
			for _, b := range betas {
				p := scenario.DefaultParams()
				p.NumUsers = scale
				p.BetaTime = b
				points = append(points, Point{X: b, Params: p})
			}
			t, err := Sweep(opts, panel.title, "beta_time", panel.yLabel,
				[]Scheme{scheme}, points, panel.metric)
			if err != nil {
				return nil, err
			}
			merged.Series = append(merged.Series, t.Series...)
		}
		tables = append(tables, merged)
	}
	return tables, nil
}

// SortSchemes orders a table's series by descending mean of the final
// point, which puts the best-performing scheme first in reports.
func SortSchemes(t *report.Table) {
	last := len(t.X) - 1
	sort.SliceStable(t.Series, func(i, j int) bool {
		return t.Series[i].Points[last].Mean > t.Series[j].Points[last].Mean
	})
}
