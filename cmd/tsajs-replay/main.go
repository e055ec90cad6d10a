// Command tsajs-replay runs the dynamic (multi-epoch) MEC simulation:
// users move under a random-waypoint model, tasks arrive stochastically,
// and TSAJS re-schedules each epoch — optionally warm-started from the
// previous epoch's decision.
//
// Usage:
//
//	tsajs-replay -epochs 20 -users 40 -active 0.6
//	tsajs-replay -epochs 50 -warm -speed-max 60
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tsajs/tsajs/internal/cli"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/dynamic"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsajs-replay:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsajs-replay", flag.ContinueOnError)
	defaults := scenario.DefaultParams()
	var (
		epochs   = fs.Int("epochs", 20, "scheduling rounds to simulate")
		epochSec = fs.Float64("epoch-seconds", 10, "wall time between rounds [s]")
		users    = fs.Int("users", 40, "total user population")
		servers  = fs.Int("servers", defaults.NumServers, "number of MEC servers")
		channels = fs.Int("channels", defaults.NumChannels, "subchannels per cell")
		active   = fs.Float64("active", 0.6, "per-epoch task probability per user")
		speedMin = fs.Float64("speed-min", 1, "min walker speed [km/h]")
		speedMax = fs.Float64("speed-max", 5, "max walker speed [km/h]")
		workMc   = fs.Float64("work-mcycles", 2500, "task workload [Megacycles]")
		warm     = fs.Bool("warm", false, "warm-start each epoch from the previous decision")
		budget   = fs.Int("budget", 5000, "TTSA evaluation budget per epoch")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		pfFlags  = cli.AddPortfolio(fs)

		deltaFlags   = cli.AddDelta(fs)
		deltaEvery   = fs.Int("delta-full-every", 0, "force a full solve every N epochs (0 = library default)")
		deltaDriftKm = fs.Float64("delta-drift-km", 0, "cumulative per-user drift that forces a full solve [km] (0 = default)")

		failProb     = fs.Float64("fail-prob", 0, "per-epoch edge-server failure probability (0 = no faults)")
		recoverProb  = fs.Float64("recover-prob", 0.5, "per-epoch failed-server recovery probability")
		coordFail    = fs.Float64("coord-fail-prob", 0, "per-epoch coordinator outage probability")
		coordRecover = fs.Float64("coord-recover-prob", 0.5, "per-epoch coordinator recovery probability")
		minUp        = fs.Int("min-up", 1, "minimum edge servers kept up per epoch")
		faultSeed    = fs.Uint64("fault-seed", 7, "fault-plan seed (independent of -seed)")

		metricsOut = fs.String("metrics-out",
			"", "write the run's metrics in Prometheus text format to this file after the replay (\"-\" = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	pf, err := pfFlags.Options()
	if err != nil {
		return err
	}

	params := defaults
	params.NumUsers = *users
	params.NumServers = *servers
	params.NumChannels = *channels
	params.Workload.WorkCycles = *workMc * 1e6
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = *budget

	var plan *faults.Plan
	if *failProb > 0 || *coordFail > 0 {
		plan, err = faults.Generate(faults.Config{
			ServerFailProb:    *failProb,
			ServerRecoverProb: *recoverProb,
			CoordFailProb:     *coordFail,
			CoordRecoverProb:  *coordRecover,
			MinUp:             *minUp,
		}, *servers, *epochs, simrand.New(*faultSeed))
		if err != nil {
			return err
		}
	}

	deltaCfg := deltaFlags.Config()
	if deltaCfg != nil {
		deltaCfg.FullEvery = *deltaEvery
		deltaCfg.DriftKm = *deltaDriftKm
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	res, err := dynamic.Run(dynamic.Config{
		Params:       params,
		Epochs:       *epochs,
		EpochSeconds: *epochSec,
		ActiveProb:   *active,
		SpeedKmHMin:  *speedMin,
		SpeedKmHMax:  *speedMax,
		WarmStart:    *warm,
		TTSAConfig:   &ttsaCfg,
		Seed:         *seed,
		Metrics:      reg,
		FaultPlan:    plan,
		Delta:        deltaCfg,
		Portfolio:    pf,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%-6s %7s %9s %9s %10s %10s %9s %6s %5s %6s",
		"epoch", "active", "offload", "utility", "delay[s]", "energy[J]", "solve", "warm", "down", "coord")
	if deltaCfg != nil {
		fmt.Fprintf(stdout, " %6s %-10s", "dirty", "mode")
	}
	fmt.Fprintln(stdout)
	for _, e := range res.Epochs {
		coord := "up"
		if e.CoordinatorDown {
			coord = "DOWN"
		}
		fmt.Fprintf(stdout, "%-6d %7d %9d %9.3f %10.3f %10.3f %9s %6v %5d %6s",
			e.Epoch, e.Active, e.Offloaded, e.Utility, e.MeanDelayS, e.MeanEnergyJ,
			e.SolveTime.Round(1e5), e.WarmStarted, e.DownServers, coord)
		if deltaCfg != nil {
			// Empty and coordinator-down epochs ran no solve.
			dirty, mode := "-", "-"
			if e.Active > 0 && !e.CoordinatorDown {
				dirty, mode = fmt.Sprint(e.DeltaDirty), "repair"
				if e.DeltaFull {
					mode = "full:" + e.DeltaReason
				}
			}
			fmt.Fprintf(stdout, " %6s %-10s", dirty, mode)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\ntotals: utility=%.3f solve=%s evaluations=%d mean-active=%.1f mean-offloaded=%.1f\n",
		res.TotalUtility, res.TotalSolveTime.Round(1e6), res.TotalEvaluations,
		res.MeanActive, res.MeanOffloaded)
	if deltaCfg != nil {
		fmt.Fprintf(stdout, "delta: full-epochs=%d repair-epochs=%d dirty-users=%d\n",
			res.DeltaFullEpochs, res.DeltaRepairEpochs, res.DeltaDirtyUsers)
	}
	for _, mt := range res.MemberTotals {
		fmt.Fprintf(stdout, "member %-10s slots=%-4d wins=%-4d budget=%.1fms\n",
			mt.Member, mt.Slots, mt.Wins, mt.BudgetMs)
	}
	if plan != nil {
		fmt.Fprintf(stdout, "faults: server-availability=%.3f coordinator-availability=%.3f degraded-epochs=%d evacuated=%d\n",
			res.ServerAvailability, res.CoordinatorAvailability, res.DegradedEpochs, res.TotalEvacuated)
	}
	if reg != nil {
		if *metricsOut == "-" {
			fmt.Fprintln(stdout)
			if _, err := stdout.Write(reg.PrometheusText()); err != nil {
				return err
			}
		} else if err := os.WriteFile(*metricsOut, reg.PrometheusText(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
