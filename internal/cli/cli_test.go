package cli

import (
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/solver"
)

// TestParsePortfolioFlags covers the one parser behind every command's
// -chains, -portfolio and -members flags.
func TestParsePortfolioFlags(t *testing.T) {
	parse := func(args ...string) (*solver.PortfolioOptions, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		p := AddPortfolio(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return p.Options()
	}
	for _, tc := range []struct {
		args []string
		want *solver.PortfolioOptions
	}{
		{nil, nil},
		{[]string{"-chains", "1", "-portfolio", ""}, nil},
		{[]string{"-chains", "3"}, &solver.PortfolioOptions{Chains: 3}},
		{[]string{"-chains", "3", "-portfolio", "Adaptive"}, &solver.PortfolioOptions{Chains: 3, Adaptive: true}},
		{[]string{"-chains", "2", "-members", "ttsa,cheap"}, &solver.PortfolioOptions{Chains: 2, Members: []string{"ttsa", "cheap"}}},
	} {
		got, err := parse(tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: got %+v, want %+v", tc.args, got, tc.want)
		}
	}
	for _, bad := range [][]string{
		{"-chains", "-1"},
		{"-chains", "1", "-portfolio", "adaptive"},
		{"-members", "ttsa"},
		{"-chains", "3", "-portfolio", "greedy"},
		{"-chains", "3", "-members", "ttsa,nope"},
	} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestCoordinatorFlags pins each shared coordinator flag's mapping into
// the coordinator configuration.
func TestCoordinatorFlags(t *testing.T) {
	ttsa := func(budget int) *core.Config {
		c := core.DefaultConfig()
		c.MaxEvaluations = budget
		return &c
	}
	params := func(servers, channels int) scenario.Params {
		p := scenario.DefaultParams()
		p.NumServers, p.NumChannels = servers, channels
		return p
	}
	base := func(edit func(*cran.ServerConfig)) cran.ServerConfig {
		c := cran.ServerConfig{
			Params:      scenario.DefaultParams(),
			BatchWindow: 30 * time.Millisecond,
			TTSA:        ttsa(900),
			Seed:        1,
		}
		if edit != nil {
			edit(&c)
		}
		return c
	}
	for _, tc := range []struct {
		args []string
		want cran.ServerConfig
	}{
		{nil, base(nil)},
		{[]string{"-servers", "4", "-channels", "2"}, base(func(c *cran.ServerConfig) { c.Params = params(4, 2) })},
		{[]string{"-window", "5ms", "-batch", "12", "-seed", "9", "-budget", "700"}, base(func(c *cran.ServerConfig) {
			c.BatchWindow, c.MaxBatch, c.Seed, c.TTSA = 5*time.Millisecond, 12, 9, ttsa(700)
		})},
		{[]string{"-workers", "3", "-queue-depth", "6"}, base(func(c *cran.ServerConfig) { c.Workers, c.QueueDepth = 3, 6 })},
		{[]string{"-deadline", "60ms"}, base(func(c *cran.ServerConfig) { c.DefaultDeadline = 60 * time.Millisecond })},
		{[]string{"-brownout"}, base(func(c *cran.ServerConfig) { c.Brownout.Enabled = true })},
		{[]string{"-delta"}, base(func(c *cran.ServerConfig) { c.Delta = &delta.Config{MoveThresholdKm: 0.05} })},
		{[]string{"-delta", "-delta-threshold-km", "0.1"}, base(func(c *cran.ServerConfig) { c.Delta = &delta.Config{MoveThresholdKm: 0.1} })},
		{[]string{"-delta-threshold-km", "0.1"}, base(nil)},
		{[]string{"-chains", "3", "-portfolio", "adaptive", "-members", "ttsa,cheap"}, base(func(c *cran.ServerConfig) {
			c.Portfolio = &solver.PortfolioOptions{Chains: 3, Adaptive: true, Members: []string{"ttsa", "cheap"}}
		})},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := AddCoordinator(fs, 30*time.Millisecond, 900)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got, err := c.Config()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v:\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := AddCoordinator(fs, 0, 0)
	if fs.Parse([]string{"-delta-full-every", "4"}) == nil {
		t.Error("-delta-full-every accepted without AddDeltaFullEvery")
	}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	c = AddCoordinator(fs, 30*time.Millisecond, 900)
	c.AddDeltaFullEvery(fs)
	if err := fs.Parse([]string{"-delta", "-delta-full-every", "4"}); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Config(); err != nil || !reflect.DeepEqual(got.Delta, &delta.Config{MoveThresholdKm: 0.05, FullEvery: 4}) {
		t.Errorf("-delta -delta-full-every 4: delta %+v, err %v", got.Delta, err)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	c = AddCoordinator(fs, 0, 0)
	if err := fs.Parse([]string{"-portfolio", "adaptive"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Config(); err == nil {
		t.Error("-portfolio adaptive without -chains accepted")
	}
}

// defaultClause matches the "(default ...)" the flag package appends to a
// flag's help line.
var defaultClause = regexp.MustCompile(` \(default [^)]*\)`)

// sharedUsage returns the help text the shared coordinator flags print,
// without their defaults, which each command chooses for -window and
// -budget.
func sharedUsage() string {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddCoordinator(fs, time.Second, 1)
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	return defaultClause.ReplaceAllString(b.String(), "")
}

// TestCoordinatorUsage pins the shared coordinator flags' help text to
// testdata/coordinator_usage.txt. The tsajs-coordinator and tsajs-loadgen
// tests check that each command prints exactly these blocks.
func TestCoordinatorUsage(t *testing.T) {
	want, err := os.ReadFile("testdata/coordinator_usage.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := sharedUsage(); got != string(want) {
		t.Errorf("shared usage drifted from testdata/coordinator_usage.txt:\n%s", got)
	}
	if n := strings.Count(string(want), "\n  -"); n+1 != 15 {
		t.Errorf("%d shared flags, want 15", n+1)
	}
}
