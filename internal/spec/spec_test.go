package spec

import (
	"strings"
	"testing"

	"github.com/tsajs/tsajs/internal/experiment"
)

func validSpec() Spec {
	return Spec{
		Title:  "test sweep",
		Sweep:  "users",
		Values: []float64{4, 8},
		Metric: "utility",
		Schemes: []string{
			"tsajs", "greedy",
		},
		Trials: 2,
		Seed:   3,
		InnerL: 10,
		Base:   Base{Servers: 3, Channels: 2, WorkMcycles: 2000},
	}
}

func TestParseValid(t *testing.T) {
	blob := []byte(`{
		"title": "utility vs users",
		"sweep": "users",
		"values": [4, 8],
		"metric": "utility",
		"schemes": ["tsajs", "greedy"],
		"trials": 2,
		"base": {"servers": 3, "channels": 2}
	}`)
	sp, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Title != "utility vs users" || sp.Sweep != "users" || len(sp.Values) != 2 {
		t.Errorf("parsed spec = %+v", sp)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"title":"x","sweep":"users","values":[1],"bogus":true}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse([]byte(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{name: "missing title", mutate: func(s *Spec) { s.Title = "" }},
		{name: "unknown sweep", mutate: func(s *Spec) { s.Sweep = "volume" }},
		{name: "no values", mutate: func(s *Spec) { s.Values = nil }},
		{name: "fractional users", mutate: func(s *Spec) { s.Sweep = "users"; s.Values = []float64{2.5} }},
		{name: "negative channels", mutate: func(s *Spec) { s.Sweep = "channels"; s.Values = []float64{-1} }},
		{name: "unknown metric", mutate: func(s *Spec) { s.Metric = "throughput" }},
		{name: "unknown scheme", mutate: func(s *Spec) { s.Schemes = []string{"magic"} }},
		{name: "negative trials", mutate: func(s *Spec) { s.Trials = -1 }},
		{name: "negative innerL", mutate: func(s *Spec) { s.InnerL = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sp := validSpec()
			tt.mutate(&sp)
			if err := sp.Validate(); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
}

func TestRunProducesTable(t *testing.T) {
	sp := validSpec()
	tbl, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tbl.Title != sp.Title {
		t.Errorf("title = %q", tbl.Title)
	}
	if len(tbl.X) != 2 || tbl.X[0] != 4 || tbl.X[1] != 8 {
		t.Errorf("x axis = %v", tbl.X)
	}
	if len(tbl.Series) != 2 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	if tbl.Series[0].Scheme != "TSAJS" || tbl.Series[1].Scheme != "Greedy" {
		t.Errorf("scheme names: %q, %q", tbl.Series[0].Scheme, tbl.Series[1].Scheme)
	}
}

func TestRunDefaultSchemes(t *testing.T) {
	sp := validSpec()
	sp.Schemes = nil
	tbl, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 4 {
		t.Errorf("default scheme count = %d, want 4", len(tbl.Series))
	}
}

func TestRunEverySweepParameter(t *testing.T) {
	sweeps := map[string][]float64{
		"users":       {4, 6},
		"servers":     {2, 3},
		"channels":    {1, 2},
		"dataKB":      {100, 400},
		"workMcycles": {1000, 2000},
		"betaTime":    {0.2, 0.8},
		"txPowerDBm":  {5, 15},
	}
	if len(sweeps) != len(experiment.SweepNames()) {
		t.Fatalf("test covers %d sweeps, package supports %d", len(sweeps), len(experiment.SweepNames()))
	}
	for name, values := range sweeps {
		t.Run(name, func(t *testing.T) {
			sp := Spec{
				Title:   "sweep " + name,
				Sweep:   name,
				Values:  values,
				Schemes: []string{"greedy"},
				Trials:  1,
				Base:    Base{Users: 5, Servers: 3, Channels: 2},
			}
			tbl, err := sp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.X) != 2 {
				t.Errorf("x axis = %v", tbl.X)
			}
		})
	}
}

func TestRunEveryMetric(t *testing.T) {
	for _, metric := range MetricNames() {
		t.Run(metric, func(t *testing.T) {
			sp := validSpec()
			sp.Metric = metric
			sp.Schemes = []string{"greedy"}
			tbl, err := sp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tbl.YLabel != metric {
				t.Errorf("y label = %q", tbl.YLabel)
			}
		})
	}
}

func TestRunEveryScheme(t *testing.T) {
	for _, scheme := range experiment.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			sp := validSpec()
			sp.Values = []float64{4} // keep exhaustive feasible
			sp.Schemes = []string{scheme}
			tbl, err := sp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Series) != 1 {
				t.Fatalf("series = %d", len(tbl.Series))
			}
		})
	}
}

func TestBaseOverrides(t *testing.T) {
	sp := validSpec()
	sp.Base = Base{
		Users:        7,
		Servers:      2,
		Channels:     2,
		BandwidthMHz: 10,
		DataKB:       111,
		WorkMcycles:  1234,
		BetaTime:     0.7,
		Lambda:       0.5,
		TxPowerDBm:   12,
		InterSiteKm:  0.8,
	}
	p := sp.params()
	if p.NumUsers != 7 || p.NumServers != 2 || p.NumChannels != 2 {
		t.Errorf("counts: %+v", p)
	}
	if p.BandwidthHz != 10e6 {
		t.Errorf("bandwidth = %g", p.BandwidthHz)
	}
	if p.Workload.DataBits != 111*8*1024 {
		t.Errorf("data = %g", p.Workload.DataBits)
	}
	if p.Workload.WorkCycles != 1234e6 {
		t.Errorf("work = %g", p.Workload.WorkCycles)
	}
	if p.BetaTime != 0.7 || p.Lambda != 0.5 || p.TxPowerDBm != 12 || p.InterSiteKm != 0.8 {
		t.Errorf("prefs: %+v", p)
	}
}

func TestSchemeNameCaseInsensitive(t *testing.T) {
	sp := validSpec()
	sp.Schemes = []string{"TSAJS", "Greedy"}
	if err := sp.Validate(); err != nil {
		t.Errorf("uppercase scheme names rejected: %v", err)
	}
}

func TestNameListsNonEmpty(t *testing.T) {
	for _, list := range [][]string{experiment.SweepNames(), MetricNames(), experiment.SchemeNames()} {
		if len(list) == 0 {
			t.Fatal("empty name list")
		}
		for _, n := range list {
			if strings.TrimSpace(n) == "" {
				t.Fatal("blank name")
			}
		}
	}
}
