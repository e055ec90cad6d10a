// Command tsajs-solve runs one scheduler on a scenario JSON instance
// (produced by tsajs-gen) and reports the resulting offloading decision,
// resource allocation and utility.
//
// Usage:
//
//	tsajs-gen -users 12 | tsajs-solve -scheme tsajs
//	tsajs-solve -in scenario.json -scheme hjtora -detail
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/cli"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/perf"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsajs-solve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsajs-solve", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "scenario JSON file (default: stdin)")
		scheme  = fs.String("scheme", "tsajs", "scheduler: tsajs, exhaustive, hjtora, localsearch, greedy")
		seed    = fs.Uint64("seed", 1, "random seed for stochastic schedulers")
		pfFlags = cli.AddPortfolio(fs)
		workers = fs.Int("workers", 0, "portfolio worker cap (0 = GOMAXPROCS; affects speed only, never the result)")
		detail  = fs.Bool("detail", false, "emit the full per-user report as JSON")
		trace   = fs.String("trace", "", "write the TTSA convergence trace as CSV to this file (tsajs scheme only)")
		cpu     = fs.String("cpuprofile", "", "write a CPU profile of the solve to this file")
		mem     = fs.String("memprofile", "", "write a heap profile after the solve to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := perf.Profile("tsajs-solve", *cpu, *mem)
	if err != nil {
		return err
	}
	defer stop()

	var blob []byte
	if *in == "" {
		blob, err = io.ReadAll(stdin)
	} else {
		blob, err = os.ReadFile(*in)
	}
	if err != nil {
		return err
	}
	var sc scenario.Scenario
	if err := json.Unmarshal(blob, &sc); err != nil {
		return err
	}

	sched, err := schedulerFor(*scheme)
	if err != nil {
		return err
	}
	pf, err := pfFlags.Options()
	if err != nil {
		return err
	}
	if pf != nil {
		lower := strings.ToLower(*scheme)
		if lower != "tsajs" && lower != "ttsa" {
			return fmt.Errorf("-chains requires the tsajs scheme, got %q", *scheme)
		}
		if *trace != "" {
			return fmt.Errorf("-trace traces a single chain; it cannot be combined with -chains %d", pf.Chains)
		}
		pf.Workers = *workers
		sched, err = portfolio.New(core.DefaultConfig(), *pf)
		if err != nil {
			return err
		}
	}
	var res solver.Result
	if *trace != "" {
		res, err = solveTraced(&sc, *scheme, *seed, *trace)
	} else {
		res, err = sched.Schedule(&sc, simrand.New(*seed))
	}
	if err != nil {
		return err
	}
	if err := solver.Verify(&sc, res); err != nil {
		return err
	}
	rep := objective.New(&sc).Evaluate(res.Assignment)

	fmt.Fprintf(stdout, "scheme:      %s\n", res.Scheme)
	fmt.Fprintf(stdout, "utility:     %.6f\n", res.Utility)
	fmt.Fprintf(stdout, "offloaded:   %d / %d users\n", res.Assignment.Offloaded(), sc.U())
	fmt.Fprintf(stdout, "mean delay:  %.4f s\n", rep.MeanDelayS)
	fmt.Fprintf(stdout, "mean energy: %.4f J\n", rep.MeanEnergyJ)
	fmt.Fprintf(stdout, "evaluations: %d\n", res.Evaluations)
	fmt.Fprintf(stdout, "elapsed:     %s\n", res.Elapsed)
	fmt.Fprintf(stdout, "assignment:  %s\n", res.Assignment)
	if *detail {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	return nil
}

// solveTraced runs the TTSA scheduler with stage tracing and writes the
// trace as CSV.
func solveTraced(sc *scenario.Scenario, scheme string, seed uint64, path string) (solver.Result, error) {
	lower := strings.ToLower(scheme)
	if lower != "tsajs" && lower != "ttsa" {
		return solver.Result{}, fmt.Errorf("-trace requires the tsajs scheme, got %q", scheme)
	}
	ttsa, err := core.New(core.DefaultConfig())
	if err != nil {
		return solver.Result{}, err
	}
	res, trace, err := ttsa.ScheduleTrace(sc, simrand.New(seed))
	if err != nil {
		return solver.Result{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return solver.Result{}, err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "stage,temp,current,best,evaluations,accelerated"); err != nil {
		return solver.Result{}, err
	}
	for _, pt := range trace {
		if _, err := fmt.Fprintf(f, "%d,%g,%g,%g,%d,%v\n",
			pt.Stage, pt.Temp, pt.Current, pt.Best, pt.Evaluations, pt.Accelerated); err != nil {
			return solver.Result{}, err
		}
	}
	return res, f.Sync()
}

func schedulerFor(name string) (solver.Scheduler, error) {
	switch strings.ToLower(name) {
	case "tsajs", "ttsa":
		return core.NewDefault(), nil
	case "exhaustive", "optimal":
		return &baseline.Exhaustive{}, nil
	case "hjtora":
		return &baseline.HJTORA{}, nil
	case "localsearch", "local":
		return baseline.NewDefaultLocalSearch(), nil
	case "greedy":
		return &baseline.Greedy{}, nil
	default:
		return nil, fmt.Errorf("unknown scheme %q (want tsajs, exhaustive, hjtora, localsearch, greedy)", name)
	}
}
