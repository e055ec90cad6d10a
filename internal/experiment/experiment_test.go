package experiment

import (
	"strings"
	"testing"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/report"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

func greedyScheduler() solver.Scheduler { return &baseline.Greedy{} }

func quickOpts() Options {
	return Options{Trials: 2, BaseSeed: 7, Quick: true}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("fig99", quickOpts()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFiguresList(t *testing.T) {
	figs := Figures()
	if len(figs) != 7 {
		t.Fatalf("Figures() = %v, want 7 entries", figs)
	}
	for _, f := range figs {
		if !strings.HasPrefix(f, "fig") {
			t.Errorf("figure id %q", f)
		}
	}
}

func checkTables(t *testing.T, tables []report.Table, wantPanels int) {
	t.Helper()
	if len(tables) != wantPanels {
		t.Fatalf("got %d panels, want %d", len(tables), wantPanels)
	}
	for _, tbl := range tables {
		if err := tbl.Validate(); err != nil {
			t.Fatal(err)
		}
		if tbl.Title == "" || tbl.XLabel == "" || tbl.YLabel == "" {
			t.Errorf("panel missing labels: %+v", tbl)
		}
		for _, series := range tbl.Series {
			for i, pt := range series.Points {
				if pt.N == 0 {
					t.Errorf("%s: %s point %d has no samples", tbl.Title, series.Scheme, i)
				}
			}
		}
	}
}

func TestFigure3Quick(t *testing.T) {
	tables, err := Figure3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 1)
	tbl := tables[0]
	if len(tbl.Series) != 5 {
		t.Fatalf("Fig. 3 has %d series, want 5", len(tbl.Series))
	}
	// The exhaustive optimum must dominate every other scheme at every
	// point (paired trials make this exact, not statistical).
	var exhaustive, tsajs *report.Series
	for i := range tbl.Series {
		switch tbl.Series[i].Scheme {
		case "Exhaustive":
			exhaustive = &tbl.Series[i]
		case "TSAJS":
			tsajs = &tbl.Series[i]
		}
	}
	if exhaustive == nil || tsajs == nil {
		t.Fatal("Fig. 3 missing Exhaustive or TSAJS series")
	}
	for i := range tbl.X {
		for _, series := range tbl.Series {
			if series.Points[i].Mean > exhaustive.Points[i].Mean+1e-9 {
				t.Errorf("point %d: %s mean %.6f beats the optimum %.6f",
					i, series.Scheme, series.Points[i].Mean, exhaustive.Points[i].Mean)
			}
		}
		// TSAJS within 5% of the optimum even in quick mode.
		if opt := exhaustive.Points[i].Mean; opt > 0 && tsajs.Points[i].Mean < 0.95*opt {
			t.Errorf("point %d: TSAJS %.6f below 95%% of optimum %.6f",
				i, tsajs.Points[i].Mean, opt)
		}
	}
}

func TestFigure4Quick(t *testing.T) {
	tables, err := Figure4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: one workload x two inner-loop settings.
	checkTables(t, tables, 2)
	for _, tbl := range tables {
		if len(tbl.Series) != 4 {
			t.Errorf("%s has %d series, want 4", tbl.Title, len(tbl.Series))
		}
	}
}

func TestFigure5Quick(t *testing.T) {
	tables, err := Figure5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 1)
	// Shape: utility decreases as data size grows, for every scheme.
	tbl := tables[0]
	for _, series := range tbl.Series {
		first := series.Points[0].Mean
		last := series.Points[len(series.Points)-1].Mean
		if last > first {
			t.Errorf("%s: utility grew with data size (%.4f -> %.4f)", series.Scheme, first, last)
		}
	}
}

func TestFigure6Quick(t *testing.T) {
	tables, err := Figure6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 1) // quick: U=50 only
	// Shape: utility increases with workload.
	tbl := tables[0]
	for _, series := range tbl.Series {
		first := series.Points[0].Mean
		last := series.Points[len(series.Points)-1].Mean
		if last < first {
			t.Errorf("%s: utility fell with workload (%.4f -> %.4f)", series.Scheme, first, last)
		}
	}
}

func TestFigure7And8Quick(t *testing.T) {
	tables7, err := Figure7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables7, 2)
	tables8, err := Figure8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables8, 2)
	// Fig. 8 reports times: strictly positive everywhere.
	for _, tbl := range tables8 {
		for _, series := range tbl.Series {
			for i, pt := range series.Points {
				if pt.Mean <= 0 {
					t.Errorf("%s %s point %d: non-positive time %g",
						tbl.Title, series.Scheme, i, pt.Mean)
				}
			}
		}
	}
}

func TestFigure9Quick(t *testing.T) {
	tables, err := Figure9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 2)
	energy, delay := tables[0], tables[1]
	if !strings.Contains(energy.Title, "energy") || !strings.Contains(delay.Title, "delay") {
		t.Fatalf("panel titles: %q, %q", energy.Title, delay.Title)
	}
	// The trade-off: raising beta_time lowers delay and raises energy.
	for _, series := range delay.Series {
		if series.Points[len(series.Points)-1].Mean > series.Points[0].Mean {
			t.Errorf("delay rose with beta_time in series %s", series.Scheme)
		}
	}
	for _, series := range energy.Series {
		if series.Points[len(series.Points)-1].Mean < series.Points[0].Mean {
			t.Errorf("energy fell with beta_time in series %s", series.Scheme)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	tables, err := Run("fig3", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Errorf("Run(fig3) returned %d panels", len(tables))
	}
}

func TestTrialSeedUniqueness(t *testing.T) {
	seen := make(map[uint64][2]int)
	for p := 0; p < 50; p++ {
		for trial := 0; trial < 50; trial++ {
			s := trialSeed(1, p, trial)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d)", prev[0], prev[1], p, trial)
			}
			seen[s] = [2]int{p, trial}
		}
	}
}

func TestMetrics(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers = 5
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := solver.RandomFeasible(sc, simrand.New(1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res := solver.Result{Assignment: a, Utility: 3.5}
	if v, err := UtilityMetric(sc, res); err != nil || v != 3.5 {
		t.Errorf("UtilityMetric = %g, %v", v, err)
	}
	if v, err := MeanEnergyMetric(sc, res); err != nil || v <= 0 {
		t.Errorf("MeanEnergyMetric = %g, %v", v, err)
	}
	if v, err := MeanDelayMetric(sc, res); err != nil || v <= 0 {
		t.Errorf("MeanDelayMetric = %g, %v", v, err)
	}
	if v, err := TimeMetric(sc, res); err != nil || v != 0 {
		t.Errorf("TimeMetric = %g, %v", v, err)
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := Sweep(quickOpts(), "t", "x", "y", nil, []Point{{X: 1}}, UtilityMetric); err == nil {
		t.Error("sweep accepted zero schemes")
	}
	ts, err := ttsa("TSAJS", 10, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(quickOpts(), "t", "x", "y", []Scheme{ts}, nil, UtilityMetric); err == nil {
		t.Error("sweep accepted zero points")
	}
	// A point with invalid params must surface the build error.
	bad := scenario.DefaultParams()
	bad.NumUsers = -1
	if _, err := Sweep(quickOpts(), "t", "x", "y", []Scheme{ts}, []Point{{X: 1, Params: bad}}, UtilityMetric); err == nil {
		t.Error("sweep swallowed a scenario build error")
	}
}

// TestNewSchemeNames pins the name table: every listed name and alias
// builds, in any case, under its display name; unknown names fail.
func TestNewSchemeNames(t *testing.T) {
	display := map[string]string{
		"tsajs": "TSAJS", "ttsa": "TSAJS", "tsajs-ms": "TSAJS-MS",
		"exhaustive": "Exhaustive", "optimal": "Exhaustive", "hjtora": "hJTORA",
		"localsearch": "LocalSearch", "local": "LocalSearch", "greedy": "Greedy",
	}
	if len(SchemeNames())+len(schemeAliases) != len(display) || len(schemes) != len(SchemeNames()) {
		t.Fatalf("table has %d names and %d aliases, test covers %d", len(schemes), len(schemeAliases), len(display))
	}
	for name, want := range display {
		sch, err := NewScheme(strings.ToUpper(name), 0, Options{})
		if err != nil || sch.Name != want {
			t.Errorf("NewScheme(%q) = %q, %v; want %q", name, sch.Name, err, want)
		}
	}
	if _, err := NewScheme("magic", 0, Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestPoints pins the sweep-point builder: each sweep sets its parameter
// and the point's x; count sweeps reject non-positive or fractional values
// and an unknown sweep fails.
func TestPoints(t *testing.T) {
	want := map[string]func(scenario.Params) float64{
		"users":       func(p scenario.Params) float64 { return float64(p.NumUsers) },
		"servers":     func(p scenario.Params) float64 { return float64(p.NumServers) },
		"channels":    func(p scenario.Params) float64 { return float64(p.NumChannels) },
		"dataKB":      func(p scenario.Params) float64 { return p.Workload.DataBits / units.KB },
		"workMcycles": func(p scenario.Params) float64 { return p.Workload.WorkCycles / units.Megacycle },
		"betaTime":    func(p scenario.Params) float64 { return p.BetaTime },
		"txPowerDBm":  func(p scenario.Params) float64 { return p.TxPowerDBm },
	}
	if len(want) != len(SweepNames()) {
		t.Fatalf("test covers %d sweeps, package supports %d", len(want), len(SweepNames()))
	}
	for _, name := range SweepNames() {
		pts, err := Points(scenario.DefaultParams(), name, []float64{3, 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, x := range []float64{3, 5} {
			if pts[i].X != x || want[name](pts[i].Params) != x {
				t.Errorf("%s point %d: x=%g param=%g, want %g", name, i, pts[i].X, want[name](pts[i].Params), x)
			}
		}
	}
	for _, bad := range []struct {
		sweep string
		v     float64
	}{{"users", 2.5}, {"channels", 0}, {"volume", 1}} {
		if _, err := Points(scenario.DefaultParams(), bad.sweep, []float64{bad.v}); err == nil {
			t.Errorf("Points(%s, %g) accepted", bad.sweep, bad.v)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 10 || o.BaseSeed != 1 || o.Workers <= 0 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{Trials: 3, BaseSeed: 9, Workers: 2}.withDefaults()
	if o.Trials != 3 || o.BaseSeed != 9 || o.Workers != 2 {
		t.Errorf("explicit options overridden: %+v", o)
	}
}

func TestSweepWorkerCountsAgree(t *testing.T) {
	// The same sweep with 1 worker and 4 workers must produce identical
	// numbers: parallelism only changes scheduling, not results.
	mk := func(workers int) report.Table {
		t.Helper()
		opts := Options{Trials: 3, BaseSeed: 5, Workers: workers}
		schemes := []Scheme{{Name: "Greedy", Scheduler: greedyScheduler()}}
		p := scenario.DefaultParams()
		p.NumUsers = 8
		p.NumServers = 3
		p.NumChannels = 2
		tbl, err := Sweep(opts, "workers", "x", "y", schemes,
			[]Point{{X: 1, Params: p}, {X: 2, Params: p}}, UtilityMetric)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	serial := mk(1)
	parallel := mk(4)
	for p := range serial.X {
		if serial.Series[0].Points[p].Mean != parallel.Series[0].Points[p].Mean {
			t.Fatalf("point %d differs across worker counts", p)
		}
	}
}
