package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/tsajs/tsajs/internal/alloc"
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// span is one timed call. Spans of one request or one offline epoch share
// a trace ID; Parent is 0 for a root span.
type span struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent"`
	Trace   uint64  `json:"trace"`
	Name    string  `json:"name"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
}

func (s span) durUs() float64 { return s.EndUs - s.StartUs }

// layer is the span name's prefix up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.origin)) / float64(time.Microsecond)
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, trace uint64, start, end time.Time) uint64 {
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartUs: t.us(start), EndUs: t.us(end)})
	return id
}

// open records a span whose end is set later by close, so children can
// name it as their parent while it runs.
func (t *tracer) open(name string, parent, trace uint64) uint64 {
	now := time.Now()
	return t.add(name, parent, trace, now, now)
}

func (t *tracer) close(id uint64) { t.spans[id-1].EndUs = t.us(time.Now()) }

// timed runs fn inside a child span of parent.
func (t *tracer) timed(name string, parent, trace uint64, fn func()) {
	start := time.Now()
	fn()
	t.add(name, parent, trace, start, time.Now())
}

// addRequests turns the records of one traced schedule into spans: per
// request a root span from the scheduled send to the answer, split into
// the generator's lateness and the client round trip.
func (t *tracer) addRequests(start time.Time, sched []request, recs []record) {
	for i := range recs {
		rec := &recs[i]
		due := start.Add(sched[i].at)
		trace := uint64(i + 1)
		root := t.add("loadgen.request", 0, trace, due, due.Add(rec.latency))
		t.add("loadgen.lag", root, trace, due, due.Add(rec.lag))
		t.add("client.offload", root, trace, due.Add(rec.lag), due.Add(rec.latency))
	}
}

// meanUs returns the mean duration of the spans named name, in
// microseconds (0 when there are none).
func (t *tracer) meanUs(name string) float64 {
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.durUs()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// layerTime is one row of the per-layer self-time roll-up.
type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"selfMs"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children are merged,
// and children are clipped to the parent's interval).
func selfTimes(spans []span) []float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUs < kids[b].StartUs })
		covered := 0.0
		lo, hi := math.Inf(-1), math.Inf(-1)
		for _, k := range kids {
			a, b := math.Max(k.StartUs, s.StartUs), math.Min(k.EndUs, s.EndUs)
			if b <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		self[i] = math.Max(0, s.durUs()-covered)
	}
	return self
}

// rollup sums self time by layer, largest first.
func rollup(spans []span) []layerTime {
	self := selfTimes(spans)
	byLayer := make(map[string]*layerTime)
	for i, s := range spans {
		lt := byLayer[s.layer()]
		if lt == nil {
			lt = &layerTime{Layer: s.layer()}
			byLayer[s.layer()] = lt
		}
		lt.Spans++
		lt.SelfMs += self[i] / 1000
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// traceFile is the document a traced run writes.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Rollup   []layerTime `json:"rollup"`
	Spans    []span      `json:"spans"`
}

// write stores the trace under dir and prints the roll-up to out.
func (t *tracer) write(dir, workload string, seed uint64, out io.Writer) (string, error) {
	doc := traceFile{Workload: workload, Seed: seed, Rollup: rollup(t.spans), Spans: t.spans}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", len(t.spans), path)
	fmt.Fprintf(out, "%-10s %8s %12s\n", "layer", "spans", "self_ms")
	for _, lt := range doc.Rollup {
		fmt.Fprintf(out, "%-10s %8d %12.3f\n", lt.Layer, lt.Spans, lt.SelfMs)
	}
	return path, nil
}

// offlineStream labels the offline pass's seeded draws.
const offlineStream = 0x0ff

// offlinePass calls the solver-layer functions on epochs shaped like the
// workload's until budget has passed (at least two epochs), recording a
// span around every call. Each epoch runs the full path on freshly moved
// users — gain tensor, scenario tables, TTSA, verification, objective,
// incremental previews, KKT allocation and the cheap brownout tier — and
// then the delta path against the previous epoch: classification, row
// refreshes for the dirty users, and a scoped repair from the previous
// decision. dirty is how many of the epoch's users jump to a fresh spot
// each epoch (all of them: fresh users); the others creep below the delta
// threshold.
func offlinePass(w workload, seed uint64, dirty int, budget time.Duration, t *tracer) (epochs int, err error) {
	p := scenario.DefaultParams()
	sites := geom.HexLayout(p.NumServers, p.InterSiteKm)
	servers := make([]scenario.Server, len(sites))
	for i, pos := range sites {
		servers[i] = scenario.Server{Pos: pos, FHz: p.ServerFreqHz}
	}
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = w.budget
	ttsa, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	dcfg := delta.Config{MoveThresholdKm: moveThresholdKm}.WithDefaults()
	repairCfg := cfg
	repairCfg.InitialTemp = dcfg.RepairTemp
	repairCfg.MaxEvaluations = dcfg.RepairBudget(dirty, w.budget)
	repairer, err := core.New(repairCfg)
	if err != nil {
		return 0, err
	}
	cheap := &baseline.Cheap{}

	root := simrand.New(seed).Derive(offlineStream)
	move, tasks := root.Derive(1), root.Derive(2)
	n := epochSlots
	// Fresh-user workloads place every user anew each epoch; the delta
	// workload's population moves dirty users and lets the rest creep.
	var pop *population
	if dirty < n {
		pop = newPopulation(n, move, move)
	}
	pos := make([]geom.Point, n)
	place := func() {
		for i := range pos {
			if pop != nil {
				pos[i] = pop.pos(i)
			} else {
				pos[i] = discPoint(move)
			}
		}
	}
	place()
	users := make([]scenario.User, n)
	for i := range users {
		users[i] = scenario.User{
			Task:       drawTask(tasks),
			FLocalHz:   p.UserFreqHz,
			TxPowerW:   units.DBmToWatts(p.TxPowerDBm),
			Kappa:      p.Kappa,
			BetaTime:   p.BetaTime,
			BetaEnergy: 1 - p.BetaTime,
			Lambda:     p.Lambda,
		}
	}
	newScenario := func(gain radio.GainTensor) *scenario.Scenario {
		return &scenario.Scenario{
			Users: users, Servers: servers, Gain: gain, Model: p.PathLoss,
			NumChannels: p.NumChannels, BandwidthHz: p.BandwidthHz,
			NoiseW: units.DBmToWatts(p.NoiseDBm), DownlinkRateBps: p.DownlinkRateBps,
			Seed: coordinatorSeed,
		}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	tracker := delta.NewTracker(dcfg, n)
	cached := radio.NewTensorBuffer(n, len(sites), p.NumChannels)
	var gainBuf []float64
	var incumbent *assign.Assignment
	deadline := time.Now().Add(budget)

	for e := 0; e < 2 || time.Now().Before(deadline); e++ {
		for i := range users {
			users[i].Pos = pos[i]
		}
		trace := uint64(e + 1)
		epoch := t.open("offline.epoch", 0, trace)
		rng := root.Derive(uint64(100 + e))

		// Full path.
		var gain radio.GainTensor
		var sc *scenario.Scenario
		var res solver.Result
		t.timed("radio.gain_build", epoch, trace, func() {
			gain, err = radio.NewGainTensorInto(gainBuf, p.PathLoss, pos, sites, p.NumChannels, rng.Derive(1))
		})
		if err != nil {
			return e, err
		}
		gainBuf = gain.Data()
		sc = newScenario(gain)
		t.timed("scenario.finalize", epoch, trace, func() { err = sc.Finalize() })
		if err != nil {
			return e, err
		}
		t.timed("core.solve", epoch, trace, func() { res, err = ttsa.Schedule(sc, rng.Derive(2)) })
		if err != nil {
			return e, err
		}
		t.timed("solver.verify", epoch, trace, func() { err = solver.Verify(sc, res) })
		if err != nil {
			return e, err
		}
		ev := objective.New(sc)
		var u float64
		t.timed("objective.eval", epoch, trace, func() { u = ev.SystemUtility(res.Assignment) })
		if math.Abs(u-res.Utility) > 1e-6*math.Max(1, math.Abs(u)) {
			return e, fmt.Errorf("offline epoch %d: evaluator utility %g differs from solver's %g", e, u, res.Utility)
		}
		inc := objective.NewIncremental(sc, res.Assignment)
		for v := 0; v < n; v++ {
			cand := toggled(res.Assignment, v)
			t.timed("objective.preview", epoch, trace, func() { u = inc.Preview(cand) })
		}
		t.timed("alloc.kkt", epoch, trace, func() { _, u = alloc.KKT(sc, res.Assignment) })
		t.timed("baseline.cheap", epoch, trace, func() { _, err = cheap.Schedule(sc, rng.Derive(3)) })
		if err != nil {
			return e, err
		}

		// Delta path, from the previous epoch's cached rows and decision.
		// The first epoch only seeds the cache, the incumbent and the
		// tracker: every user is new.
		if incumbent == nil {
			copy(cached.Data(), gain.Data())
			incumbent = res.Assignment
			tracker.Plan(e, active, func(i int) geom.Point { return pos[i] }, nil)
		} else {
			var plan delta.Plan
			t.timed("delta.plan", epoch, trace, func() {
				plan = tracker.Plan(e, active, func(i int) geom.Point { return pos[i] }, nil)
			})
			for _, i := range plan.Dirty {
				urng := rng.Derive(uint64(1000 + i))
				t.timed("radio.refresh_row", epoch, trace, func() {
					err = cached.RefreshUser(p.PathLoss, i, pos[i], sites, urng)
				})
				if err != nil {
					return e, err
				}
			}
			dsc := newScenario(cached)
			t.timed("scenario.finalize", epoch, trace, func() { err = dsc.Finalize() })
			if err != nil {
				return e, err
			}
			if len(plan.Dirty) > 0 {
				var rep solver.Result
				t.timed("core.repair", epoch, trace, func() {
					rep, err = repairer.ScheduleRepair(dsc, rng.Derive(4), incumbent, plan.Dirty)
				})
				if err != nil {
					return e, err
				}
				if err := solver.Verify(dsc, rep); err != nil {
					return e, err
				}
				incumbent = rep.Assignment
			}
		}
		t.close(epoch)
		if pop != nil {
			pop.shift(dirty)
		}
		place()
		epochs++
	}
	return epochs, nil
}

// toggled returns a copy of a with user v's decision flipped: an offloaded
// user goes local, a local one takes the first free slot (or stays local
// when every slot is taken) — a single Algorithm 2 style move.
func toggled(a *assign.Assignment, v int) *assign.Assignment {
	c := a.Clone()
	if !c.IsLocal(v) {
		c.SetLocal(v)
		return c
	}
	for s := 0; s < c.Servers(); s++ {
		if j := c.FreeChannel(s, 0); j != assign.Local {
			_ = c.Offload(v, s, j)
			return c
		}
	}
	return c
}
