// Convergence: look inside the annealing schedule. Traces one TTSA run on
// a contended network, showing the temperature ladder, the threshold
// trigger firing, and the best-so-far utility climbing — then compares
// single-chain TSAJS against a parallel multi-start under the same total
// budget, and against plain simulated annealing (the paper's cooling
// ablation).
//
// Run with: go run ./examples/convergence
package main

import (
	"fmt"
	"log"

	"github.com/tsajs/tsajs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	params := tsajs.DefaultParams()
	params.NumUsers = 40
	params.Workload.WorkCycles = 2500e6
	params.Seed = 17
	sc, err := tsajs.Build(params)
	if err != nil {
		return err
	}

	ttsa, err := tsajs.NewTTSA(tsajs.DefaultConfig())
	if err != nil {
		return err
	}
	res, trace, err := ttsa.ScheduleTrace(sc, tsajs.NewRand(3))
	if err != nil {
		return err
	}

	fmt.Println("TTSA convergence (every 60th temperature stage):")
	fmt.Printf("%-7s %12s %10s %10s %12s %6s\n",
		"stage", "temp", "current", "best", "evaluations", "fast")
	accelerated := 0
	for i, pt := range trace {
		if pt.Accelerated {
			accelerated++
		}
		if i%60 == 0 || i == len(trace)-1 {
			fmt.Printf("%-7d %12.3e %10.4f %10.4f %12d %6v\n",
				pt.Stage, pt.Temp, pt.Current, pt.Best, pt.Evaluations, pt.Accelerated)
		}
	}
	fmt.Printf("\nfinal utility %.4f after %d evaluations; threshold trigger fired on %d/%d stages\n",
		res.Utility, res.Evaluations, accelerated, len(trace))

	summary, err := tsajs.SummarizeTrace(trace)
	if err != nil {
		return err
	}
	fmt.Printf("reached 99%% of final quality at stage %d (%d evaluations, %.0f%% of the schedule)\n",
		summary.StagesTo99, summary.EvaluationsTo99,
		100*float64(summary.EvaluationsTo99)/float64(summary.Evaluations))

	// Cooling ablation: same seed, threshold disabled.
	plainCfg := tsajs.DefaultConfig()
	plainCfg.DisableThreshold = true
	plain, err := tsajs.NewTTSA(plainCfg)
	if err != nil {
		return err
	}
	plainRes, err := plain.Schedule(sc, tsajs.NewRand(3))
	if err != nil {
		return err
	}
	fmt.Printf("\nplain SA (no threshold trigger): utility %.4f after %d evaluations\n",
		plainRes.Utility, plainRes.Evaluations)
	fmt.Printf("threshold trigger saved %d evaluations (%.0f%%) at a utility delta of %+.4f\n",
		plainRes.Evaluations-res.Evaluations,
		100*float64(plainRes.Evaluations-res.Evaluations)/float64(plainRes.Evaluations),
		res.Utility-plainRes.Utility)

	// Multi-start: a portfolio of six budget-capped chains in parallel.
	msCfg := tsajs.DefaultConfig()
	msCfg.MaxEvaluations = res.Evaluations / 6
	ms, err := tsajs.NewPortfolio(msCfg, tsajs.PortfolioOptions{Chains: 6})
	if err != nil {
		return err
	}
	msRes, err := ms.Schedule(sc, tsajs.NewRand(3))
	if err != nil {
		return err
	}
	fmt.Printf("\nmulti-start (6 chains, same total budget): utility %.4f after %d evaluations\n",
		msRes.Utility, msRes.Evaluations)
	return nil
}
