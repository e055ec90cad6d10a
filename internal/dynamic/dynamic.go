// Package dynamic extends the paper's static JTORA snapshot into a
// multi-epoch online simulation: users move (random waypoint), tasks
// arrive stochastically, the channel is redrawn from the new geometry, and
// the scheduler re-optimizes each epoch — optionally warm-started from the
// previous epoch's decision, the natural deployment mode of TSAJS behind a
// C-RAN coordinator.
package dynamic

import (
	"errors"
	"fmt"
	"time"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/mobility"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/task"
	"github.com/tsajs/tsajs/internal/units"
)

// Config parametrizes an online simulation run.
type Config struct {
	// Params is the base static configuration: network size, radio
	// model, device capabilities, task shape, preferences. NumUsers is
	// the total population; each epoch a subset is active.
	Params scenario.Params
	// Epochs is the number of scheduling rounds to simulate.
	Epochs int
	// EpochSeconds is the wall time between rounds (drives mobility).
	EpochSeconds float64
	// ActiveProb is the probability that a user holds a task in a given
	// epoch (independent across users and epochs).
	ActiveProb float64
	// Mobility bounds the random-waypoint speeds; zero values default to
	// pedestrian 1–5 km/h.
	SpeedKmHMin float64
	SpeedKmHMax float64
	// WarmStart re-seeds each epoch's search from the previous epoch's
	// decision (restricted to still-active users); an epoch that solved
	// nothing (no active user, or a coordinator outage) leaves nothing to
	// carry. Cold start draws a fresh random initial decision every epoch.
	WarmStart bool
	// Scheduler overrides the default TTSA scheduler. Warm starting
	// requires the default (it needs ScheduleFrom).
	Scheduler solver.Scheduler
	// TTSAConfig configures the default scheduler when Scheduler is nil.
	// The zero value means core.DefaultConfig.
	TTSAConfig *core.Config
	// Portfolio, when non-nil, runs every epoch's solve as a K-chain
	// deterministic portfolio (internal/portfolio) instead of a single TTSA
	// chain. Warm starts and fault masks carry into every chain; Workers
	// affects wall-clock time only, never the decisions. With Adaptive set,
	// each epoch's chain budget is reallocated across the member roster by
	// the online UCB selector from the utilities of earlier epochs:
	// deterministic per seed (the plan is a pure function of seed, epoch,
	// and the preceding epochs' outcomes) but not bit-identical to fixed
	// mode. Requires the built-in TTSA scheduler.
	Portfolio *solver.PortfolioOptions
	// Seed drives the entire simulation (mobility, arrivals, channel,
	// search).
	Seed uint64
	// Metrics, when non-nil, receives the run's observability stream: the
	// tsajs_replay_* per-epoch counters and histograms, plus the
	// tsajs_solver_* per-solve telemetry of the underlying TTSA (or
	// portfolio) scheduler. Observation is passive — a run with metrics
	// returns decisions bit-identical to the same run without. Requires the
	// built-in TTSA scheduler for the solver stream; a custom Scheduler
	// still gets the epoch stream.
	Metrics *obs.Registry
	// Delta, when non-nil, runs incremental epochs: gain-tensor rows are
	// redrawn only for users whose position moved beyond the configured
	// threshold, and the solve becomes a short repair anneal scoped to the
	// dirty users with the previous epoch's decision as incumbent, falling
	// back to a full solve on the configured gates. A full epoch solves as
	// it would without Delta: cold or warm-started (WarmStart), by one chain
	// or the portfolio (Portfolio); a repair always anneals one TTSA chain.
	// Requires the built-in TTSA scheduler. Every run draws row i from the
	// keyed stream of (epoch, user), so a delta run's full epochs are
	// bit-identical to the same epochs of the Delta == nil run, which is
	// also the MoveThresholdKm = 0 run: a full solve every epoch.
	Delta *delta.Config
	// FaultPlan, when non-nil, injects the plan's failures into the run:
	// epochs where the coordinator is down degrade every active user to
	// local execution, and failed edge servers are masked out of the search
	// with their warm-started occupants evacuated. The plan must cover
	// Params.NumServers servers; epochs beyond the plan's horizon are fully
	// available. Requires the built-in TTSA scheduler.
	FaultPlan *faults.Plan
}

func (c Config) withDefaults() Config {
	if c.SpeedKmHMin == 0 {
		c.SpeedKmHMin = 1
	}
	if c.SpeedKmHMax == 0 {
		c.SpeedKmHMax = 5
	}
	if c.EpochSeconds == 0 {
		c.EpochSeconds = 10
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Params.Validate(); err != nil {
		return err
	}
	switch {
	case c.Epochs <= 0:
		return fmt.Errorf("dynamic: epochs must be positive, got %d", c.Epochs)
	case c.EpochSeconds <= 0:
		return fmt.Errorf("dynamic: epoch length must be positive, got %g s", c.EpochSeconds)
	case c.ActiveProb < 0 || c.ActiveProb > 1:
		return fmt.Errorf("dynamic: active probability must be in [0,1], got %g", c.ActiveProb)
	case c.WarmStart && c.Scheduler != nil:
		return errors.New("dynamic: warm start requires the built-in TTSA scheduler")
	case c.Portfolio != nil && c.Scheduler != nil:
		return errors.New("dynamic: portfolio chains require the built-in TTSA scheduler")
	case c.FaultPlan != nil && c.Scheduler != nil:
		return errors.New("dynamic: fault plans require the built-in TTSA scheduler (server masking)")
	case c.FaultPlan != nil && c.FaultPlan.Servers() != c.Params.NumServers:
		return fmt.Errorf("dynamic: fault plan covers %d servers, network has %d",
			c.FaultPlan.Servers(), c.Params.NumServers)
	case c.Delta != nil && c.Scheduler != nil:
		return errors.New("dynamic: delta epochs require the built-in TTSA scheduler")
	}
	if c.Portfolio != nil {
		if err := c.Portfolio.Validate(); err != nil {
			return err
		}
	}
	if c.Delta != nil {
		if err := c.Delta.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// EpochMetrics is the outcome of one scheduling round.
type EpochMetrics struct {
	Epoch int `json:"epoch"`
	// Active is the number of users holding a task this epoch; Offloaded
	// of those, how many the scheduler sent to MEC servers.
	Active    int `json:"active"`
	Offloaded int `json:"offloaded"`
	// Utility is the achieved system utility over the active users.
	Utility float64 `json:"utility"`
	// MeanDelayS and MeanEnergyJ average over the active users.
	MeanDelayS  float64 `json:"meanDelayS"`
	MeanEnergyJ float64 `json:"meanEnergyJ"`
	// Evaluations and SolveTime measure the search effort.
	Evaluations int           `json:"evaluations"`
	SolveTime   time.Duration `json:"solveTime"`
	// WarmStarted reports whether the epoch reused the previous decision.
	WarmStarted bool `json:"warmStarted"`
	// DownServers is the number of failed edge servers this epoch;
	// Evacuated counts warm-started users displaced from them.
	DownServers int `json:"downServers,omitempty"`
	Evacuated   int `json:"evacuated,omitempty"`
	// CoordinatorDown marks a degraded epoch: the coordinator was
	// unreachable, so every active user executed locally (Eq. 1 cost,
	// zero utility) without any scheduling.
	CoordinatorDown bool `json:"coordinatorDown,omitempty"`
	// Delta-path accounting (zero without Config.Delta): DeltaFull marks
	// a full-solve epoch with DeltaReason naming the gate that fired
	// (delta.Reason*); DeltaDirty counts the gain-tensor rows refreshed —
	// every active user on a full epoch, the dirty set on a repair epoch.
	DeltaFull   bool   `json:"deltaFull,omitempty"`
	DeltaReason string `json:"deltaReason,omitempty"`
	DeltaDirty  int    `json:"deltaDirty,omitempty"`
	// DeltaIncumbent is the utility of the carried (post-masking)
	// incumbent a repair epoch started from — the floor the repair's
	// Utility can never undercut. Zero on full epochs.
	DeltaIncumbent float64 `json:"deltaIncumbent,omitempty"`
}

// Result aggregates a full run.
type Result struct {
	Epochs []EpochMetrics `json:"epochs"`
	// TotalUtility sums utilities across epochs; TotalSolveTime sums
	// search time — the headline trade-off of warm vs cold starting.
	TotalUtility     float64       `json:"totalUtility"`
	TotalSolveTime   time.Duration `json:"totalSolveTime"`
	TotalEvaluations int           `json:"totalEvaluations"`
	MeanActive       float64       `json:"meanActive"`
	MeanOffloaded    float64       `json:"meanOffloaded"`
	// Availability metrics summarize the injected faults: the mean
	// fraction of edge servers up, the fraction of epochs with a reachable
	// coordinator, degraded (coordinator-down) epoch count, and the total
	// number of warm-start evacuations. Without a fault plan the
	// availabilities are 1 and the counts 0.
	ServerAvailability      float64 `json:"serverAvailability"`
	CoordinatorAvailability float64 `json:"coordinatorAvailability"`
	DegradedEpochs          int     `json:"degradedEpochs"`
	TotalEvacuated          int     `json:"totalEvacuated"`
	// Delta-path summary (zero without Config.Delta): solved epochs that
	// fell back to a full solve vs ran a scoped repair, and the total
	// gain-tensor rows refreshed across the run.
	DeltaFullEpochs   int `json:"deltaFullEpochs,omitempty"`
	DeltaRepairEpochs int `json:"deltaRepairEpochs,omitempty"`
	DeltaDirtyUsers   int `json:"deltaDirtyUsers,omitempty"`
	// MemberTotals aggregates the adaptive portfolio's per-member chain
	// slots, reduction wins, evaluations, and wall-clock budget across the
	// run. Nil without Portfolio.Adaptive.
	MemberTotals []solver.MemberTotal `json:"memberTotals,omitempty"`
}

// Run executes the online simulation.
//
// Every run drives one delta.State over the population. Without
// Config.Delta its config is delta.Config{FullEvery: 1}, so every epoch is
// a full solve; with it, the state's gates pick full and repair epochs. Row
// i of an epoch's gain tensor is drawn from the keyed stream of (epoch,
// active[i]) (simrand.Stream), so a user's gains are a pure function of the
// seed, the epoch and the user's position, whichever earlier epochs
// refreshed which rows. That is what makes the full epochs of a delta run
// bit-identical to the same epochs of a plain run.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	root := simrand.New(cfg.Seed)
	moveRNG := root.Derive(0x6d6f7665)            // "move"
	taskRNG := root.Derive(0x7461736b)            // "task"
	radioKey := simrand.Key(cfg.Seed, 0x72616469) // "radi"
	solveRNG := root.Derive(0x736f6c76)           // "solv"

	em := newEpochMetrics(cfg.Metrics)
	var dm *deltaMetrics
	dcfg := delta.Config{FullEvery: 1}
	if cfg.Delta != nil {
		dm = newDeltaMetrics(cfg.Metrics)
		dcfg = *cfg.Delta
	}

	sched := cfg.Scheduler
	var ttsa *core.TTSA
	var pf *portfolio.Portfolio
	if sched == nil {
		ttsaCfg := core.DefaultConfig()
		if cfg.TTSAConfig != nil {
			ttsaCfg = *cfg.TTSAConfig
		}
		var err error
		ttsa, err = core.New(ttsaCfg)
		if err != nil {
			return nil, err
		}
		if cfg.Metrics != nil {
			// Passive per-solve telemetry; the walk and its decisions are
			// unchanged (see core.TTSA.WithObserver).
			ttsa = ttsa.WithObserver(obs.NewSolverMetrics(cfg.Metrics))
		}
		sched = ttsa
		if cfg.Portfolio != nil {
			pf, err = portfolio.Wrap(ttsa, *cfg.Portfolio)
			if err != nil {
				return nil, err
			}
			if cfg.Metrics != nil {
				pf = pf.WithObserver(obs.NewSolverMetrics(cfg.Metrics)).
					WithMemberObserver(obs.NewPortfolioMetrics(cfg.Metrics))
			}
			sched = pf
		}
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

	// One chain over the population: row cache, positions and the carried
	// decision, keyed by population index. It never evicts, so
	// classification stays history-free.
	st := delta.NewState[int](dcfg)
	row := simrand.Stream(0)

	res := &Result{Epochs: make([]EpochMetrics, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if epoch > 0 {
			if err := pop.Step(cfg.EpochSeconds); err != nil {
				return nil, err
			}
		}

		// Look up this epoch's injected faults.
		var down []int
		coordDown := false
		if cfg.FaultPlan != nil {
			down = cfg.FaultPlan.DownServers(epoch)
			coordDown = cfg.FaultPlan.CoordinatorDown(epoch)
		}

		// Draw this epoch's active set.
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
		userRNG := func(i int) *simrand.Source {
			row.Rekey(simrand.Key(radioKey, uint64(epoch), uint64(active[i])))
			return row
		}
		gain := radio.NewTensorBuffer(len(active), cfg.Params.NumServers, cfg.Params.NumChannels)

		var plan delta.Plan
		if coordDown {
			// The rows of a degraded epoch are drawn from this epoch's
			// streams without touching the chain state, so later epochs
			// stay threshold-independent.
			for i := range active {
				if err := gain.RefreshUser(cfg.Params.PathLoss, i, positions[i], sites, userRNG(i)); err != nil {
					return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
				}
			}
		} else {
			downSet := make(map[int]bool, len(down))
			for _, s := range down {
				downSet[s] = true
			}
			// A user parked on a failed server is evacuated by the mask and
			// must be re-placed, so the plan forces it dirty.
			plan = st.Plan(epoch, active, pos, func(s int) bool { return downSet[s] })
			if _, err := st.Gains(plan, active, gain, cfg.Params.PathLoss, sites, pos, userRNG); err != nil {
				return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
			}
		}
		sc, err := assembleEpochScenario(cfg.Params, sites, positions, tasks, gain)
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}

		if coordDown {
			// Coordinator outage: graceful degradation. Every active user
			// runs its task locally (the device-side fallback of
			// cran.DialResilient) and the incumbent is lost with the
			// coordinator's state, forcing the next solved epoch to a full
			// solve.
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

		// A full epoch starts cold, or from the carried decision when warm
		// starting and it offloads someone. A repair epoch starts from the
		// carried decision and anneals only the dirty users. Either way
		// the failed servers are masked out and their occupants evacuated.
		epochRNG := solveRNG.Derive(uint64(epoch))
		var initial *assign.Assignment
		if !plan.Full || cfg.WarmStart {
			if initial, err = st.Incumbent(sc, active); err != nil {
				return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
			}
			if plan.Full && initial.Offloaded() == 0 {
				initial = nil // nothing to warm-start from
			}
		}
		warm := plan.Full && initial != nil
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
		case pf != nil:
			// The portfolio's SolveFrom handles both cold (nil initial)
			// and warm/masked starts; every chain inherits the initial
			// decision and its server masks.
			solveRes, err = pf.SolveFrom(sc, epochRNG, initial)
		case initial != nil:
			solveRes, err = ttsa.ScheduleFrom(sc, epochRNG, initial)
		default:
			solveRes, err = sched.Schedule(sc, epochRNG)
		}
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}
		if err := solver.Verify(sc, solveRes); err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}
		st.Commit(active, solveRes.Assignment)

		rep := objective.New(sc).Evaluate(solveRes.Assignment)
		e := EpochMetrics{
			Epoch:       epoch,
			Active:      len(active),
			Offloaded:   solveRes.Assignment.Offloaded(),
			Utility:     solveRes.Utility,
			MeanDelayS:  rep.MeanDelayS,
			MeanEnergyJ: rep.MeanEnergyJ,
			Evaluations: solveRes.Evaluations,
			SolveTime:   solveRes.Elapsed,
			WarmStarted: warm,
			DownServers: len(down),
			Evacuated:   evacuated,
		}
		if cfg.Delta != nil {
			e.DeltaFull, e.DeltaReason = plan.Full, plan.Reason
			e.DeltaDirty, e.DeltaIncumbent = plan.Rows(len(active)), incumbentJ
		}
		res.Epochs = append(res.Epochs, em.observe(dm.observe(e)))
	}

	res.summarize(cfg.Params.NumServers, cfg.Delta != nil)
	if pf != nil {
		res.MemberTotals = pf.MemberTotals()
	}
	return res, nil
}

// summarize fills the aggregate fields from the per-epoch records. delta
// marks a delta-path run, whose solved epochs additionally roll up into
// the full/repair/dirty counters.
func (r *Result) summarize(numServers int, delta bool) {
	for _, e := range r.Epochs {
		r.TotalUtility += e.Utility
		r.TotalSolveTime += e.SolveTime
		r.TotalEvaluations += e.Evaluations
		r.MeanActive += float64(e.Active)
		r.MeanOffloaded += float64(e.Offloaded)
		r.ServerAvailability += 1 - float64(e.DownServers)/float64(numServers)
		if e.CoordinatorDown {
			r.DegradedEpochs++
		} else {
			r.CoordinatorAvailability++
		}
		r.TotalEvacuated += e.Evacuated
		if delta && e.Active > 0 && !e.CoordinatorDown {
			if e.DeltaFull {
				r.DeltaFullEpochs++
			} else {
				r.DeltaRepairEpochs++
			}
			r.DeltaDirtyUsers += e.DeltaDirty
		}
	}
	n := float64(len(r.Epochs))
	r.MeanActive /= n
	r.MeanOffloaded /= n
	r.ServerAvailability /= n
	r.CoordinatorAvailability /= n
}

// assembleEpochScenario packages an epoch's positions, tasks, and gains
// into a finalized scenario.
func assembleEpochScenario(p scenario.Params, sites []geom.Point, positions []geom.Point, tasks []task.Task, gain radio.GainTensor) (*scenario.Scenario, error) {
	servers := make([]scenario.Server, len(sites))
	for i, pos := range sites {
		servers[i] = scenario.Server{Pos: pos, FHz: p.ServerFreqHz}
	}
	users := make([]scenario.User, len(positions))
	for i := range users {
		users[i] = scenario.User{
			Pos:        positions[i],
			Task:       tasks[i],
			FLocalHz:   p.UserFreqHz,
			TxPowerW:   txPowerW(p),
			Kappa:      p.Kappa,
			BetaTime:   p.BetaTime,
			BetaEnergy: 1 - p.BetaTime,
			Lambda:     p.Lambda,
		}
	}
	sc := &scenario.Scenario{
		Users:           users,
		Servers:         servers,
		Gain:            gain,
		Model:           p.PathLoss,
		NumChannels:     p.NumChannels,
		BandwidthHz:     p.BandwidthHz,
		NoiseW:          noiseW(p),
		DownlinkRateBps: p.DownlinkRateBps,
		Seed:            p.Seed,
	}
	if err := sc.Finalize(); err != nil {
		return nil, err
	}
	return sc, nil
}

// maskDown masks the failed servers out of the initial decision (an
// all-local one when initial is nil) and returns it with the number of
// users evacuated. With no failed server, initial comes back unchanged,
// nil for a cold start.
func maskDown(sc *scenario.Scenario, initial *assign.Assignment, down []int) (*assign.Assignment, int, error) {
	if len(down) == 0 {
		return initial, 0, nil
	}
	if initial == nil {
		var err error
		if initial, err = assign.New(sc.U(), sc.S(), sc.N()); err != nil {
			return nil, 0, err
		}
	}
	evacuated := 0
	for _, s := range down {
		if s >= sc.S() {
			continue
		}
		evac, err := initial.MaskServer(s)
		if err != nil {
			return nil, 0, err
		}
		evacuated += len(evac)
	}
	return initial, evacuated, nil
}

// epochMetrics streams per-epoch replay telemetry into a registry as the
// simulation runs, so a long replay can be scraped live. A nil recorder
// (no registry configured) is a no-op.
type epochMetrics struct {
	epochs    *obs.Counter
	degraded  *obs.Counter
	evacuated *obs.Counter
	warm      *obs.Counter
	offloaded *obs.Counter
	active    *obs.Histogram
	utility   *obs.Histogram
	solve     *obs.Histogram
}

func newEpochMetrics(reg *obs.Registry) *epochMetrics {
	if reg == nil {
		return nil
	}
	return &epochMetrics{
		epochs: reg.Counter("tsajs_replay_epochs_total",
			"Simulated scheduling rounds."),
		degraded: reg.Counter("tsajs_replay_degraded_epochs_total",
			"Epochs degraded to all-local execution by a coordinator outage."),
		evacuated: reg.Counter("tsajs_replay_evacuations_total",
			"Warm-started users displaced from failed edge servers."),
		warm: reg.Counter("tsajs_replay_warm_started_epochs_total",
			"Epochs whose search reused the previous decision."),
		offloaded: reg.Counter("tsajs_replay_offloaded_total",
			"Per-epoch decisions that sent a task to a MEC server."),
		active: reg.Histogram("tsajs_replay_active_users",
			"Users holding a task per epoch.", obs.DefaultBatchEdges),
		utility: reg.Histogram("tsajs_replay_epoch_utility",
			"Achieved system utility per epoch.", obs.DefaultUtilityEdges),
		solve: reg.Histogram("tsajs_replay_solve_seconds",
			"Scheduler wall time per epoch.", obs.DefaultLatencyEdges),
	}
}

// observe records one epoch and returns it unchanged, so it can wrap the
// EpochMetrics literal at each append site.
func (m *epochMetrics) observe(e EpochMetrics) EpochMetrics {
	if m == nil {
		return e
	}
	m.epochs.Inc()
	if e.CoordinatorDown {
		m.degraded.Inc()
	}
	if e.WarmStarted {
		m.warm.Inc()
	}
	m.evacuated.Add(uint64(e.Evacuated))
	m.offloaded.Add(uint64(e.Offloaded))
	m.active.Observe(float64(e.Active))
	if e.Active > 0 && !e.CoordinatorDown {
		m.utility.Observe(e.Utility)
		m.solve.Observe(e.SolveTime.Seconds())
	}
	return e
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

func txPowerW(p scenario.Params) float64 {
	return units.DBmToWatts(p.TxPowerDBm)
}

func noiseW(p scenario.Params) float64 {
	return units.DBmToWatts(p.NoiseDBm)
}
