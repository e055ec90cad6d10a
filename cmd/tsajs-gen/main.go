// Command tsajs-gen generates a TSAJS scenario instance as JSON, suitable
// for tsajs-solve or for archiving the exact inputs of an experiment.
//
// Usage:
//
//	tsajs-gen -users 30 -servers 9 -channels 3 -seed 7 > scenario.json
//	tsajs-gen -users 6 -servers 4 -channels 2 -work-mcycles 4000 -o tiny.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tsajs/tsajs/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsajs-gen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsajs-gen", flag.ContinueOnError)
	defaults := scenario.DefaultParams()
	var (
		users    = fs.Int("users", defaults.NumUsers, "number of users U")
		servers  = fs.Int("servers", defaults.NumServers, "number of MEC servers S")
		channels = fs.Int("channels", defaults.NumChannels, "subchannels per cell N")

		bandwidthMHz = fs.Float64("bandwidth-mhz", defaults.BandwidthHz/1e6, "total uplink bandwidth B [MHz]")
		noiseDBm     = fs.Float64("noise-dbm", defaults.NoiseDBm, "per-subchannel noise power [dBm]")
		txDBm        = fs.Float64("tx-dbm", defaults.TxPowerDBm, "user transmit power [dBm]")

		serverGHz = fs.Float64("server-ghz", defaults.ServerFreqHz/1e9, "MEC server CPU rate f_s [GHz]")
		userGHz   = fs.Float64("user-ghz", defaults.UserFreqHz/1e9, "user device CPU rate f_u [GHz]")
		kappa     = fs.Float64("kappa", defaults.Kappa, "chip energy coefficient")

		dataKB      = fs.Float64("data-kb", defaults.Workload.DataBits/(8*1024), "task input size d_u [KB]")
		workMcycles = fs.Float64("work-mcycles", defaults.Workload.WorkCycles/1e6, "task workload w_u [Megacycles]")
		dataJitter  = fs.Float64("data-jitter", 0, "relative task-size jitter in [0,1)")
		workJitter  = fs.Float64("work-jitter", 0, "relative workload jitter in [0,1)")

		betaTime = fs.Float64("beta-time", defaults.BetaTime, "time preference beta^time in [0,1]")
		lambda   = fs.Float64("lambda", defaults.Lambda, "provider preference lambda in (0,1]")

		interKm = fs.Float64("inter-site-km", defaults.InterSiteKm, "inter-BS distance [km]")
		seed    = fs.Uint64("seed", defaults.Seed, "random seed")
		out     = fs.String("o", "", "output file (default stdout)")
		compact = fs.Bool("compact", false, "compact JSON (no indentation)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := defaults
	p.NumUsers = *users
	p.NumServers = *servers
	p.NumChannels = *channels
	p.BandwidthHz = *bandwidthMHz * 1e6
	p.NoiseDBm = *noiseDBm
	p.TxPowerDBm = *txDBm
	p.ServerFreqHz = *serverGHz * 1e9
	p.UserFreqHz = *userGHz * 1e9
	p.Kappa = *kappa
	p.Workload.DataBits = *dataKB * 8 * 1024
	p.Workload.WorkCycles = *workMcycles * 1e6
	p.Workload.DataJitter = *dataJitter
	p.Workload.WorkJitter = *workJitter
	p.BetaTime = *betaTime
	p.Lambda = *lambda
	p.InterSiteKm = *interKm
	p.Seed = *seed

	sc, err := scenario.Build(p)
	if err != nil {
		return err
	}
	var blob []byte
	if *compact {
		blob, err = json.Marshal(sc)
	} else {
		blob, err = json.MarshalIndent(sc, "", "  ")
	}
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out != "" {
		return os.WriteFile(*out, blob, 0o644)
	}
	_, err = stdout.Write(blob)
	return err
}
