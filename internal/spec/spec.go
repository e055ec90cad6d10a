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

	"github.com/tsajs/tsajs/internal/experiment"
	"github.com/tsajs/tsajs/internal/report"
	"github.com/tsajs/tsajs/internal/scenario"
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
	// Sweep names the swept parameter (experiment.SweepNames): users,
	// servers, channels, dataKB, workMcycles, betaTime, txPowerDBm.
	Sweep string `json:"sweep"`
	// Values are the sweep points (the table's x axis).
	Values []float64 `json:"values"`
	// Metric is utility (default), time, energy or delay.
	Metric string `json:"metric,omitempty"`
	// Schemes lists schedulers by the names experiment.NewScheme accepts
	// (tsajs, tsajs-ms, exhaustive, hjtora, localsearch, greedy and the
	// aliases ttsa, optimal, local, in any case). Default:
	// experiment.ComparisonSchemes (tsajs, hjtora, localsearch, greedy).
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

// MetricNames lists the supported metrics.
func MetricNames() []string { return []string{"utility", "time", "energy", "delay"} }

// Validate checks the specification.
func (sp Spec) Validate() error {
	if sp.Title == "" {
		return fmt.Errorf("spec: missing title")
	}
	if len(sp.Values) == 0 {
		return fmt.Errorf("spec: no sweep values")
	}
	if _, err := experiment.Points(scenario.DefaultParams(), sp.Sweep, sp.Values); err != nil {
		return err
	}
	if sp.Metric != "" {
		if _, err := metricFor(sp.Metric); err != nil {
			return err
		}
	}
	if _, err := experiment.NewSchemes(sp.InnerL, experiment.Options{}, sp.Schemes...); err != nil {
		return err
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
	names := sp.Schemes
	if len(names) == 0 {
		names = experiment.ComparisonSchemes()
	}
	schemes, err := experiment.NewSchemes(sp.InnerL, experiment.Options{}, names...)
	if err != nil {
		return report.Table{}, err
	}
	points, err := experiment.Points(sp.params(), sp.Sweep, sp.Values)
	if err != nil {
		return report.Table{}, err
	}

	yLabel := sp.Metric
	if yLabel == "" {
		yLabel = "utility"
	}
	opts := experiment.Options{Trials: sp.Trials, BaseSeed: sp.Seed}
	return experiment.Sweep(opts, sp.Title, sp.Sweep, yLabel, schemes, points, metric)
}
