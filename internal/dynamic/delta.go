package dynamic

import (
	"fmt"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/mobility"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// runDelta is Run's incremental epoch path (Config.Delta non-nil).
//
// The crucial departure from the default path is the RNG stream
// discipline for channel gains: instead of one sequential radio stream
// consumed epoch after epoch, every (epoch, user) pair owns a derived
// stream radioRNG.Derive(epoch).Derive(u). A user's gain block is then a
// pure function of the seed, the epoch, and the user's position — no
// matter which earlier epochs refreshed which rows — which is what makes
// full epochs of a repair run bit-identical to the same epochs of the
// threshold-0 reference run, and dirty classification history-free
// across thresholds (the metamorphic monotonicity property).
func runDelta(cfg Config) (*Result, error) {
	root := simrand.New(cfg.Seed)
	moveRNG := root.Derive(0x6d6f7665)  // "move"
	taskRNG := root.Derive(0x7461736b)  // "task"
	radioRNG := root.Derive(0x72616469) // "radi"
	solveRNG := root.Derive(0x736f6c76) // "solv"

	em := newEpochMetrics(cfg.Metrics)
	dm := newDeltaMetrics(cfg.Metrics)

	ttsaCfg := core.DefaultConfig()
	if cfg.TTSAConfig != nil {
		ttsaCfg = *cfg.TTSAConfig
	}
	ttsa, err := core.New(ttsaCfg)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		ttsa = ttsa.WithObserver(obs.NewSolverMetrics(cfg.Metrics))
	}

	sites := geom.HexLayout(cfg.Params.NumServers, cfg.Params.InterSiteKm)
	pop, err := mobility.New(mobility.Config{
		Sites:              sites,
		CellCircumradiusKm: geom.HexCircumradius(cfg.Params.InterSiteKm),
		SpeedKmHMin:        cfg.SpeedKmHMin,
		SpeedKmHMax:        cfg.SpeedKmHMax,
	}, cfg.Params.NumUsers, moveRNG)
	if err != nil {
		return nil, err
	}

	// One delta chain over the population: row cache, positions and the
	// carried decision, keyed by population index. It never evicts, so
	// classification stays history-free.
	st := delta.NewState[int](*cfg.Delta)

	res := &Result{Epochs: make([]EpochMetrics, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if epoch > 0 {
			if err := pop.Step(cfg.EpochSeconds); err != nil {
				return nil, err
			}
		}

		var down []int
		coordDown := false
		if cfg.FaultPlan != nil {
			down = cfg.FaultPlan.DownServers(epoch)
			coordDown = cfg.FaultPlan.CoordinatorDown(epoch)
		}

		var active []int
		for u := 0; u < cfg.Params.NumUsers; u++ {
			if taskRNG.Float64() < cfg.ActiveProb {
				active = append(active, u)
			}
		}
		if len(active) == 0 {
			st.Skip(false)
			res.Epochs = append(res.Epochs, em.observe(EpochMetrics{
				Epoch:           epoch,
				DownServers:     len(down),
				CoordinatorDown: coordDown,
			}))
			continue
		}

		positions := make([]geom.Point, len(active))
		for i, u := range active {
			positions[i] = pop.Position(u)
		}
		pos := func(i int) geom.Point { return positions[i] }
		tasks, err := cfg.Params.Workload.Generate(len(active), taskRNG)
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}
		// Every (epoch, user) pair owns its gain stream.
		userRNG := func(i int) *simrand.Source {
			return radioRNG.Derive(uint64(epoch)).Derive(uint64(active[i]))
		}
		gain := radio.NewTensorBuffer(len(active), cfg.Params.NumServers, cfg.Params.NumChannels)

		if coordDown {
			// Coordinator outage: every active user runs locally and the
			// incumbent is lost with the coordinator's state, forcing the
			// next solved epoch to a full solve. The gain draws here use
			// this epoch's derived streams without touching the chain
			// state, keeping later epochs threshold-independent.
			for i := range active {
				if err := gain.RefreshUser(cfg.Params.PathLoss, i, positions[i], sites, userRNG(i)); err != nil {
					return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
				}
			}
			sc, err := assembleEpochScenario(cfg.Params, sites, positions, tasks, gain)
			if err != nil {
				return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
			}
			allLocal, err := assign.New(sc.U(), sc.S(), sc.N())
			if err != nil {
				return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
			}
			rep := objective.New(sc).Evaluate(allLocal)
			st.Skip(true)
			res.Epochs = append(res.Epochs, em.observe(EpochMetrics{
				Epoch:           epoch,
				Active:          len(active),
				Utility:         rep.SystemUtility,
				MeanDelayS:      rep.MeanDelayS,
				MeanEnergyJ:     rep.MeanEnergyJ,
				DownServers:     len(down),
				CoordinatorDown: true,
			}))
			continue
		}

		downSet := make(map[int]bool, len(down))
		for _, s := range down {
			downSet[s] = true
		}
		// A user parked on a failed server is evacuated by the mask and
		// must be re-placed, so the plan forces it dirty.
		plan := st.Plan(epoch, active, pos, func(s int) bool { return downSet[s] })
		if _, err := st.Gains(plan, active, gain, cfg.Params.PathLoss, sites, pos, userRNG); err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}
		sc, err := assembleEpochScenario(cfg.Params, sites, positions, tasks, gain)
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}

		// Full solve: cold start, exactly the classic path with the failed
		// servers masked. No state from earlier epochs leaks in, so this
		// epoch is a pure function of (seed, epoch, trajectory) — the
		// bit-identical anchor of the differential harness. Repair: the
		// carried decision as incumbent, failed servers masked (their
		// occupants are in the dirty set), and a short cold anneal whose
		// moves target only dirty users.
		epochRNG := solveRNG.Derive(uint64(epoch))
		var initial *assign.Assignment
		if !plan.Full {
			if initial, err = st.Incumbent(sc, active); err != nil {
				return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
			}
		}
		initial, evacuated, err := maskDown(sc, initial, down)
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}
		var solveRes solver.Result
		incumbentJ := 0.0
		switch {
		case !plan.Full:
			incumbentJ = objective.New(sc).SystemUtility(initial)
			solveRes, err = st.Repair(sc, epochRNG, ttsa, initial, plan.Dirty)
		case initial != nil:
			solveRes, err = ttsa.ScheduleFrom(sc, epochRNG, initial)
		default:
			solveRes, err = ttsa.Schedule(sc, epochRNG)
		}
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}
		if err := solver.Verify(sc, solveRes); err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}
		st.Commit(active, solveRes.Assignment)

		rep := objective.New(sc).Evaluate(solveRes.Assignment)
		res.Epochs = append(res.Epochs, em.observe(dm.observe(EpochMetrics{
			Epoch:          epoch,
			Active:         len(active),
			Offloaded:      solveRes.Assignment.Offloaded(),
			Utility:        solveRes.Utility,
			MeanDelayS:     rep.MeanDelayS,
			MeanEnergyJ:    rep.MeanEnergyJ,
			Evaluations:    solveRes.Evaluations,
			SolveTime:      solveRes.Elapsed,
			DownServers:    len(down),
			Evacuated:      evacuated,
			DeltaFull:      plan.Full,
			DeltaReason:    plan.Reason,
			DeltaDirty:     plan.Rows(len(active)),
			DeltaIncumbent: incumbentJ,
		})))
	}

	res.summarize(cfg.Params.NumServers, true)
	return res, nil
}

// deltaMetrics streams the delta-path epoch classification into the
// registry: full vs repair epochs by reason, and refreshed row counts.
type deltaMetrics struct {
	full   *obs.Counter
	repair *obs.Counter
	dirty  *obs.Counter
}

func newDeltaMetrics(reg *obs.Registry) *deltaMetrics {
	if reg == nil {
		return nil
	}
	return &deltaMetrics{
		full: reg.Counter("tsajs_replay_delta_full_epochs_total",
			"Delta-path epochs that fell back to a full solve."),
		repair: reg.Counter("tsajs_replay_delta_repair_epochs_total",
			"Delta-path epochs solved by a scoped repair anneal."),
		dirty: reg.Counter("tsajs_replay_delta_dirty_rows_total",
			"Gain-tensor rows refreshed by the delta path."),
	}
}

func (m *deltaMetrics) observe(e EpochMetrics) EpochMetrics {
	if m == nil {
		return e
	}
	if e.DeltaFull {
		m.full.Inc()
	} else {
		m.repair.Inc()
	}
	m.dirty.Add(uint64(e.DeltaDirty))
	return e
}
