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
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/tsajs/tsajs"
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
		chains  = fs.Int("chains", 1, "run the tsajs scheme as a K-chain multi-restart portfolio (deterministic per seed)")
		workers = fs.Int("workers", 0, "portfolio worker cap (0 = GOMAXPROCS; affects speed only, never the result)")
		pfMode  = fs.String("portfolio", "fixed", "portfolio budget allocation: fixed (round-robin, the reproducibility default) or adaptive (bandit selector)")
		members = fs.String("members", "", "comma-separated portfolio member roster (ttsa, ttsa-fast, ttsa-wide, attract, hjtora, greedy, cheap); empty = homogeneous ttsa, or the diverse default under -portfolio adaptive")
		detail  = fs.Bool("detail", false, "emit the full per-user report as JSON")
		trace   = fs.String("trace", "", "write the TTSA convergence trace as CSV to this file (tsajs scheme only)")
		cpu     = fs.String("cpuprofile", "", "write a CPU profile of the solve to this file")
		mem     = fs.String("memprofile", "", "write a heap profile after the solve to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpu != "" {
		f, err := os.Create(*cpu)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *mem != "" {
		defer func() {
			f, err := os.Create(*mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tsajs-solve: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tsajs-solve: memprofile:", err)
			}
		}()
	}

	var blob []byte
	var err error
	if *in == "" {
		blob, err = io.ReadAll(stdin)
	} else {
		blob, err = os.ReadFile(*in)
	}
	if err != nil {
		return err
	}
	var sc tsajs.Scenario
	if err := json.Unmarshal(blob, &sc); err != nil {
		return err
	}

	sched, err := schedulerFor(*scheme)
	if err != nil {
		return err
	}
	if *chains < 1 {
		return fmt.Errorf("-chains must be at least 1, got %d", *chains)
	}
	adaptive, err := parsePortfolioMode(*pfMode)
	if err != nil {
		return err
	}
	roster, err := tsajs.ParsePortfolioMembers(*members)
	if err != nil {
		return err
	}
	if (adaptive || roster != nil) && *chains <= 1 {
		return fmt.Errorf("-portfolio adaptive and -members require -chains greater than 1")
	}
	if *chains > 1 {
		lower := strings.ToLower(*scheme)
		if lower != "tsajs" && lower != "ttsa" {
			return fmt.Errorf("-chains requires the tsajs scheme, got %q", *scheme)
		}
		if *trace != "" {
			return fmt.Errorf("-trace traces a single chain; it cannot be combined with -chains %d", *chains)
		}
		sched, err = tsajs.NewPortfolio(tsajs.DefaultConfig(), tsajs.PortfolioOptions{
			Chains:   *chains,
			Workers:  *workers,
			Members:  roster,
			Adaptive: adaptive,
		})
		if err != nil {
			return err
		}
	}
	var res tsajs.Result
	if *trace != "" {
		res, err = solveTraced(&sc, *scheme, *seed, *trace)
	} else {
		res, err = sched.Schedule(&sc, tsajs.NewRand(*seed))
	}
	if err != nil {
		return err
	}
	if err := tsajs.Verify(&sc, res); err != nil {
		return err
	}
	rep := tsajs.Evaluate(&sc, res.Assignment)

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
func solveTraced(sc *tsajs.Scenario, scheme string, seed uint64, path string) (tsajs.Result, error) {
	lower := strings.ToLower(scheme)
	if lower != "tsajs" && lower != "ttsa" {
		return tsajs.Result{}, fmt.Errorf("-trace requires the tsajs scheme, got %q", scheme)
	}
	ttsa, err := tsajs.NewTTSA(tsajs.DefaultConfig())
	if err != nil {
		return tsajs.Result{}, err
	}
	res, trace, err := ttsa.ScheduleTrace(sc, tsajs.NewRand(seed))
	if err != nil {
		return tsajs.Result{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return tsajs.Result{}, err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "stage,temp,current,best,evaluations,accelerated"); err != nil {
		return tsajs.Result{}, err
	}
	for _, pt := range trace {
		if _, err := fmt.Fprintf(f, "%d,%g,%g,%g,%d,%v\n",
			pt.Stage, pt.Temp, pt.Current, pt.Best, pt.Evaluations, pt.Accelerated); err != nil {
			return tsajs.Result{}, err
		}
	}
	return res, f.Sync()
}

// parsePortfolioMode maps the -portfolio flag to PortfolioOptions.Adaptive.
func parsePortfolioMode(mode string) (adaptive bool, err error) {
	switch strings.ToLower(mode) {
	case "", "fixed":
		return false, nil
	case "adaptive":
		return true, nil
	default:
		return false, fmt.Errorf("unknown -portfolio mode %q (want fixed or adaptive)", mode)
	}
}

func schedulerFor(name string) (tsajs.Scheduler, error) {
	switch strings.ToLower(name) {
	case "tsajs", "ttsa":
		return tsajs.NewScheduler(), nil
	case "exhaustive", "optimal":
		return tsajs.NewExhaustive(), nil
	case "hjtora":
		return tsajs.NewHJTORA(), nil
	case "localsearch", "local":
		return tsajs.NewLocalSearch(), nil
	case "greedy":
		return tsajs.NewGreedy(), nil
	default:
		return nil, fmt.Errorf("unknown scheme %q (want tsajs, exhaustive, hjtora, localsearch, greedy)", name)
	}
}
