// Command tsajs-sim reproduces the paper's evaluation figures.
//
// Usage:
//
//	tsajs-sim -figure fig3              # one figure, text tables to stdout
//	tsajs-sim -figure all -trials 20    # every figure, 20 trials per point
//	tsajs-sim -figure fig8 -csv -o out/ # CSV files, one per panel
//
// Each reproduced figure is emitted as a table of x values against
// per-scheme means with 95% confidence intervals — the same rows the
// paper's plots draw.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/tsajs/tsajs"
	"github.com/tsajs/tsajs/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsajs-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsajs-sim", flag.ContinueOnError)
	var (
		figure = fs.String("figure", "all", "experiment to run: all, "+
			strings.Join(tsajs.Figures(), ", ")+", ablations, "+strings.Join(tsajs.Ablations(), ", "))
		trials   = fs.Int("trials", 10, "independent trials per data point")
		seed     = fs.Uint64("seed", 1, "base random seed")
		workers  = fs.Int("workers", 0, "parallel workers (0 = NumCPU)")
		chains   = fs.Int("chains", 1, "solve each TSAJS trial as a K-chain multi-restart portfolio (deterministic per seed)")
		quick    = fs.Bool("quick", false, "reduced sweeps and search budgets (smoke mode)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		outDir   = fs.String("o", "", "write each panel to a file in this directory instead of stdout")
		specFile = fs.String("spec", "", "run a custom sweep from this JSON specification instead of a paper figure")
		cpu      = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		mem      = fs.String("memprofile", "", "write a heap profile after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := perf.Profile("tsajs-sim", *cpu, *mem)
	if err != nil {
		return err
	}
	defer stop()

	if *specFile != "" {
		return runSpec(*specFile, stdout, *csv, *outDir)
	}

	figures := tsajs.Figures()
	switch *figure {
	case "all":
	case "ablations":
		figures = tsajs.Ablations()
	default:
		figures = []string{*figure}
	}
	opts := tsajs.ExperimentOptions{
		Trials:   *trials,
		BaseSeed: *seed,
		Workers:  *workers,
		Quick:    *quick,
		Chains:   *chains,
	}

	for _, fig := range figures {
		started := time.Now()
		var tables []tsajs.FigureTable
		var err error
		if strings.HasPrefix(fig, "abl-") {
			tables, err = tsajs.RunAblation(fig, opts)
		} else {
			tables, err = tsajs.RunFigure(fig, opts)
		}
		if err != nil {
			return err
		}
		for i, t := range tables {
			w, closeFn, err := outputFor(stdout, *outDir, fig, i, *csv)
			if err != nil {
				return err
			}
			if *csv {
				err = t.WriteCSV(w)
			} else {
				err = t.WriteText(w)
			}
			if cerr := closeFn(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			if *outDir == "" && !*csv {
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprintf(stdout, "# %s: %d panel(s), %d trials/point, %s\n\n",
			fig, len(tables), *trials, time.Since(started).Round(time.Millisecond))
	}
	return nil
}

// runSpec executes a custom JSON sweep specification.
func runSpec(path string, stdout io.Writer, csv bool, outDir string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	table, err := tsajs.RunSpec(blob)
	if err != nil {
		return err
	}
	w, closeFn, err := outputFor(stdout, outDir, "spec", 0, csv)
	if err != nil {
		return err
	}
	if csv {
		err = table.WriteCSV(w)
	} else {
		err = table.WriteText(w)
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return err
}

// outputFor selects stdout or a per-panel file.
func outputFor(stdout io.Writer, dir, fig string, panel int, csv bool) (io.Writer, func() error, error) {
	if dir == "" {
		return stdout, func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	ext := "txt"
	if csv {
		ext = "csv"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_panel%d.%s", fig, panel, ext))
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
