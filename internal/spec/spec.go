// Package spec runs user-defined experiments from a declarative JSON
// specification, generalizing the fixed paper figures of
// internal/experiment: pick a swept parameter, its values, the schemes,
// the metric, and the trial count, and get back the same mean±CI tables
// the figure harness emits.
//
// Example specification:
//
//	{
//	  "title": "utility vs users at 2000 Mcycles",
//	  "sweep": "users",
//	  "values": [10, 20, 40, 80],
//	  "metric": "utility",
//	  "schemes": ["tsajs", "hjtora", "greedy"],
//	  "trials": 10,
//	  "base": {"workMcycles": 2000}
//	}
package spec

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/experiment"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/report"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// Base overrides the paper-default scenario parameters for every sweep
// point. Zero-valued fields keep the defaults.
type Base struct {
	Users        int     `json:"users,omitempty"`
	Servers      int     `json:"servers,omitempty"`
	Channels     int     `json:"channels,omitempty"`
	BandwidthMHz float64 `json:"bandwidthMHz,omitempty"`
	DataKB       float64 `json:"dataKB,omitempty"`
	WorkMcycles  float64 `json:"workMcycles,omitempty"`
	BetaTime     float64 `json:"betaTime,omitempty"`
	Lambda       float64 `json:"lambda,omitempty"`
	TxPowerDBm   float64 `json:"txPowerDBm,omitempty"`
	InterSiteKm  float64 `json:"interSiteKm,omitempty"`
}

// Spec is one declarative experiment.
type Spec struct {
	// Title labels the output table.
	Title string `json:"title"`
	// Sweep names the swept parameter: users, servers, channels, dataKB,
	// workMcycles, betaTime, txPowerDBm.
	Sweep string `json:"sweep"`
	// Values are the sweep points (the table's x axis).
	Values []float64 `json:"values"`
	// Metric is utility (default), time, energy or delay.
	Metric string `json:"metric,omitempty"`
	// Schemes lists schedulers: tsajs, exhaustive, hjtora, localsearch,
	// greedy, tsajs-ms. Default: tsajs, hjtora, localsearch, greedy.
	Schemes []string `json:"schemes,omitempty"`
	// Trials is the realizations per point (default 10).
	Trials int `json:"trials,omitempty"`
	// Seed bases all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// InnerL overrides the TTSA inner-loop length L (default 30).
	InnerL int `json:"innerL,omitempty"`
	// Base overrides fixed scenario parameters.
	Base Base `json:"base,omitempty"`
}

// Parse decodes and validates a JSON specification.
func Parse(blob []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("spec: decode: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
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
		return fmt.Errorf("spec: sweep %q needs positive integers, got %g", name, v)
	}
	return nil
}

// SweepNames lists the supported sweep parameters.
func SweepNames() []string {
	return []string{"users", "servers", "channels", "dataKB", "workMcycles", "betaTime", "txPowerDBm"}
}

// MetricNames lists the supported metrics.
func MetricNames() []string { return []string{"utility", "time", "energy", "delay"} }

// SchemeNames lists the supported scheduler identifiers.
func SchemeNames() []string {
	return []string{"tsajs", "exhaustive", "hjtora", "localsearch", "greedy", "tsajs-ms"}
}

// Validate checks the specification.
func (sp Spec) Validate() error {
	if sp.Title == "" {
		return fmt.Errorf("spec: missing title")
	}
	setter, ok := sweepSetters[sp.Sweep]
	if !ok {
		return fmt.Errorf("spec: unknown sweep %q (want one of %v)", sp.Sweep, SweepNames())
	}
	if len(sp.Values) == 0 {
		return fmt.Errorf("spec: no sweep values")
	}
	for _, v := range sp.Values {
		p := scenario.DefaultParams()
		if err := setter(&p, v); err != nil {
			return err
		}
	}
	if sp.Metric != "" {
		if _, err := metricFor(sp.Metric); err != nil {
			return err
		}
	}
	for _, name := range sp.Schemes {
		if _, err := schemeFor(name, sp.InnerL); err != nil {
			return err
		}
	}
	if sp.Trials < 0 {
		return fmt.Errorf("spec: trials must be non-negative, got %d", sp.Trials)
	}
	if sp.InnerL < 0 {
		return fmt.Errorf("spec: innerL must be non-negative, got %d", sp.InnerL)
	}
	return nil
}

func metricFor(name string) (experiment.Metric, error) {
	switch name {
	case "", "utility":
		return experiment.UtilityMetric, nil
	case "time":
		return experiment.TimeMetric, nil
	case "energy":
		return experiment.MeanEnergyMetric, nil
	case "delay":
		return experiment.MeanDelayMetric, nil
	default:
		return nil, fmt.Errorf("spec: unknown metric %q (want one of %v)", name, MetricNames())
	}
}

func schemeFor(name string, innerL int) (experiment.Scheme, error) {
	if innerL == 0 {
		innerL = core.DefaultConfig().InnerIterations
	}
	switch strings.ToLower(name) {
	case "tsajs":
		cfg := core.DefaultConfig()
		cfg.InnerIterations = innerL
		ts, err := core.New(cfg)
		if err != nil {
			return experiment.Scheme{}, err
		}
		return experiment.Scheme{Name: "TSAJS", Scheduler: ts}, nil
	case "tsajs-ms":
		cfg := core.DefaultConfig()
		cfg.InnerIterations = innerL
		pf, err := portfolio.New(cfg, solver.PortfolioOptions{Chains: 4})
		if err != nil {
			return experiment.Scheme{}, err
		}
		return experiment.Scheme{Name: "TSAJS-MS", Scheduler: pf}, nil
	case "exhaustive":
		return experiment.Scheme{Name: "Exhaustive", Scheduler: &baseline.Exhaustive{}}, nil
	case "hjtora":
		return experiment.Scheme{Name: "hJTORA", Scheduler: &baseline.HJTORA{}}, nil
	case "localsearch":
		return experiment.Scheme{Name: "LocalSearch", Scheduler: baseline.NewDefaultLocalSearch()}, nil
	case "greedy":
		return experiment.Scheme{Name: "Greedy", Scheduler: &baseline.Greedy{}}, nil
	default:
		return experiment.Scheme{}, fmt.Errorf("spec: unknown scheme %q (want one of %v)", name, SchemeNames())
	}
}

// params applies the base overrides to the paper defaults.
func (sp Spec) params() scenario.Params {
	p := scenario.DefaultParams()
	b := sp.Base
	if b.Users > 0 {
		p.NumUsers = b.Users
	}
	if b.Servers > 0 {
		p.NumServers = b.Servers
	}
	if b.Channels > 0 {
		p.NumChannels = b.Channels
	}
	if b.BandwidthMHz > 0 {
		p.BandwidthHz = b.BandwidthMHz * units.MHz
	}
	if b.DataKB > 0 {
		p.Workload.DataBits = b.DataKB * units.KB
	}
	if b.WorkMcycles > 0 {
		p.Workload.WorkCycles = b.WorkMcycles * units.Megacycle
	}
	if b.BetaTime > 0 {
		p.BetaTime = b.BetaTime
	}
	if b.Lambda > 0 {
		p.Lambda = b.Lambda
	}
	if b.TxPowerDBm != 0 {
		p.TxPowerDBm = b.TxPowerDBm
	}
	if b.InterSiteKm > 0 {
		p.InterSiteKm = b.InterSiteKm
	}
	return p
}

// Run executes the specification and returns its table.
func (sp Spec) Run() (report.Table, error) {
	if err := sp.Validate(); err != nil {
		return report.Table{}, err
	}
	metric, err := metricFor(sp.Metric)
	if err != nil {
		return report.Table{}, err
	}
	schemeNames := sp.Schemes
	if len(schemeNames) == 0 {
		schemeNames = []string{"tsajs", "hjtora", "localsearch", "greedy"}
	}
	schemes := make([]experiment.Scheme, 0, len(schemeNames))
	for _, name := range schemeNames {
		sch, err := schemeFor(name, sp.InnerL)
		if err != nil {
			return report.Table{}, err
		}
		schemes = append(schemes, sch)
	}

	setter := sweepSetters[sp.Sweep]
	points := make([]experiment.Point, 0, len(sp.Values))
	for _, v := range sp.Values {
		p := sp.params()
		if err := setter(&p, v); err != nil {
			return report.Table{}, err
		}
		points = append(points, experiment.Point{X: v, Params: p})
	}

	yLabel := sp.Metric
	if yLabel == "" {
		yLabel = "utility"
	}
	opts := experiment.Options{Trials: sp.Trials, BaseSeed: sp.Seed}
	return experiment.Sweep(opts, sp.Title, sp.Sweep, yLabel, schemes, points, metric)
}
