// Package experiment reproduces the paper's evaluation: one generator per
// figure (Figs. 3–9), each returning the same x/series data the figure
// plots, with means and 95% confidence intervals over independent trials.
//
// Every data point is a paired comparison: all schemes solve the same
// scenario realizations, as in the paper's methodology. Trials run in
// parallel across worker goroutines; determinism is preserved by deriving
// every random stream from (BaseSeed, point index, trial index).
package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/report"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/stats"
)

// Options controls an experiment run.
type Options struct {
	// Trials is the number of independent scenario realizations per data
	// point (default 10).
	Trials int
	// BaseSeed seeds all randomness (default 1).
	BaseSeed uint64
	// Workers bounds parallel trial execution (default NumCPU).
	Workers int
	// Quick shrinks sweeps and search budgets for smoke tests and
	// benchmarks; the full paper configuration runs with Quick=false.
	Quick bool
	// Chains runs every stochastic TSAJS solve as a K-chain deterministic
	// portfolio (internal/portfolio) instead of a single chain; 0 and 1
	// keep the sequential solver. Baseline schemes are unaffected.
	Chains int
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 10
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Metric extracts the plotted quantity from one solve of one scenario.
type Metric func(sc *scenario.Scenario, r solver.Result) (float64, error)

// UtilityMetric reports the achieved system utility J(X, F).
func UtilityMetric(_ *scenario.Scenario, r solver.Result) (float64, error) {
	return r.Utility, nil
}

// TimeMetric reports the solve wall-clock time in seconds.
func TimeMetric(_ *scenario.Scenario, r solver.Result) (float64, error) {
	return r.Elapsed.Seconds(), nil
}

// MeanEnergyMetric reports the mean per-user energy (J) under the decision.
func MeanEnergyMetric(sc *scenario.Scenario, r solver.Result) (float64, error) {
	return objective.New(sc).Evaluate(r.Assignment).MeanEnergyJ, nil
}

// MeanDelayMetric reports the mean per-user completion time (s).
func MeanDelayMetric(sc *scenario.Scenario, r solver.Result) (float64, error) {
	return objective.New(sc).Evaluate(r.Assignment).MeanDelayS, nil
}

// Scheme pairs a display name with a scheduler instance. Schedulers must be
// safe for concurrent Schedule calls (all built-in ones are).
type Scheme struct {
	Name      string
	Scheduler solver.Scheduler
}

// Point is one x value of a sweep with its scenario parameters.
type Point struct {
	// X is the value plotted on the x axis.
	X float64
	// Params builds the scenarios at this point (Seed is overwritten per
	// trial).
	Params scenario.Params
}

// Sweep runs every scheme over every point for opts.Trials independent
// realizations and assembles the resulting table. It is the engine behind
// every figure generator and the internal/spec custom experiments.
func Sweep(opts Options, title, xLabel, yLabel string, schemes []Scheme, points []Point, metric Metric) (report.Table, error) {
	opts = opts.withDefaults()
	if len(schemes) == 0 {
		return report.Table{}, fmt.Errorf("experiment: %s: no schemes", title)
	}
	if len(points) == 0 {
		return report.Table{}, fmt.Errorf("experiment: %s: no sweep points", title)
	}

	// values[pointIdx][schemeIdx][trial]
	values := make([][][]float64, len(points))
	for p := range values {
		values[p] = make([][]float64, len(schemes))
		for s := range values[p] {
			values[p][s] = make([]float64, opts.Trials)
		}
	}

	type job struct{ pointIdx, trial int }
	jobs := make(chan job)
	errOnce := sync.Once{}
	var firstErr error
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				if err := runTrial(opts, schemes, points[jb.pointIdx], jb, metric, values); err != nil {
					fail(fmt.Errorf("experiment: %s: point %d trial %d: %w", title, jb.pointIdx, jb.trial, err))
				}
			}
		}()
	}
	for p := range points {
		for t := 0; t < opts.Trials; t++ {
			jobs <- job{pointIdx: p, trial: t}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return report.Table{}, firstErr
	}

	table := report.Table{
		Title:  title,
		XLabel: xLabel,
		YLabel: yLabel,
		X:      make([]float64, len(points)),
		Series: make([]report.Series, len(schemes)),
	}
	for p := range points {
		table.X[p] = points[p].X
	}
	for s, scheme := range schemes {
		series := report.Series{Scheme: scheme.Name, Points: make([]stats.Summary, len(points))}
		for p := range points {
			summary, err := stats.Summarize(values[p][s])
			if err != nil {
				return report.Table{}, fmt.Errorf("experiment: %s: %w", title, err)
			}
			series.Points[p] = summary
		}
		table.Series[s] = series
	}
	return table, nil
}

func runTrial(opts Options, schemes []Scheme, pt Point, jb struct{ pointIdx, trial int }, metric Metric, values [][][]float64) error {
	params := pt.Params
	params.Seed = trialSeed(opts.BaseSeed, jb.pointIdx, jb.trial)
	sc, err := scenario.Build(params)
	if err != nil {
		return err
	}
	for s, scheme := range schemes {
		rng := simrand.New(params.Seed).Derive(uint64(s) + 0x5eed)
		res, err := scheme.Scheduler.Schedule(sc, rng)
		if err != nil {
			return fmt.Errorf("%s: %w", scheme.Name, err)
		}
		if err := solver.Verify(sc, res); err != nil {
			return err
		}
		v, err := metric(sc, res)
		if err != nil {
			return fmt.Errorf("%s: metric: %w", scheme.Name, err)
		}
		values[jb.pointIdx][s][jb.trial] = v
	}
	return nil
}

// trialSeed derives a unique deterministic seed per (base, point, trial).
func trialSeed(base uint64, pointIdx, trial int) uint64 {
	return base ^ (uint64(pointIdx)+1)<<32 ^ (uint64(trial) + 1)
}
