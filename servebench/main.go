// Command servebench is the repository's serving benchmark. It self-hosts a
// TSAJS coordinator (internal/cran) and drives it over loopback from this
// one process with a seeded open-loop Poisson schedule: every request is
// sent at its scheduled time whatever happened to the earlier ones, and is
// timed from that scheduled time. It checks every answer and prints one
// JSON result line last.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash servebench/run.sh --workload serve-fresh --seed 1 --seconds 30 --trace 0
//
// Workloads (offered rates are fixed constants, never calibrated at run
// time): serve-fresh, serve-delta and serve-overload; see workload.go.
// Seed 1 is the default seed; seed 9001 is held out for confirming claims.
//
// With --trace 0 the run sets up several times (reporting the median set-up
// time) and measures the end-to-end metrics untraced. With --trace 1 it
// runs the schedule untraced and then traced (a counting listener, client
// spans and coordinator counter deltas), then an offline pass that calls
// the solver-layer functions on epochs shaped like the workload's, and
// reports the per-layer metrics. Spans are written to
// .bench_build/trace-<workload>.json with a per-layer self-time roll-up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/scenario"
)

const (
	defaultSeed = 1
	// setupRuns is how many times an untraced run sets up; setup_s is the
	// median.
	setupRuns = 7
	// window is the length of the equal windows an untraced schedule is
	// split into; the latency percentiles and utility are medians over
	// them. Two seconds hold over a thousand answers on every workload.
	window = 2 * time.Second
	// lagShare divides the workload's latency limit into how late the
	// generator may run at its 99th percentile before the run is declared
	// invalid rather than reported: a generator that late no longer offers
	// the workload's load. Lateness is part of every latency anyway, which
	// is timed from the scheduled send; timer wake-ups alone cost several
	// milliseconds at the tail on a shared host.
	lagShare = 2
	// traceDir is where traced runs write their spans, relative to the
	// working directory.
	traceDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-fresh, serve-delta or serve-overload")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: arrival schedule, users, positions and tasks")
	seconds := fs.Int("seconds", 30, "measured schedule length in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs())
	span := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = tracedRun(w, *seed, span, stdout)
	} else {
		res, err = plainRun(w, *seed, span, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// procs is the process's GOMAXPROCS and connection count: at most two, and
// never more than the machine has.
func procs() int { return min(2, runtime.NumCPU()) }

// phase is one measured schedule against one rig.
type phase struct {
	w        workload
	span     time.Duration
	recs     []record
	start    time.Time // when the schedule started
	sum      summary
	before   serverCounters
	after    serverCounters
	frames   uint64 // binary frames the coordinator counted in the window
	cpu      time.Duration
	mallocs  uint64
	gcFrac   float64
	reads    uint64
	writes   uint64
	queueMax float64
	problems []string
}

// measure plays sched on r and checks the outcome. A queue-depth sampler
// runs alongside when sample is set (traced runs only).
func measure(r *rig, w workload, sched []request, span time.Duration, nwin int, sample bool) (*phase, error) {
	p := &phase{w: w, span: span}
	r.settleFrames()
	p.before = r.counters()
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	gc0 := gcSample()
	reads0, writes0 := r.wireCounts()
	cpu0 := cpuTime()

	stop := make(chan struct{})
	sampled := make(chan float64, 1)
	if sample {
		go func() { sampled <- r.sampleQueue(stop) }()
	}
	p.recs, p.start = r.drive(sched)
	close(stop)
	if sample {
		p.queueMax = <-sampled
	}

	p.cpu = cpuTime() - cpu0
	reads1, writes1 := r.wireCounts()
	p.reads, p.writes = reads1-reads0, writes1-writes0
	gc1 := gcSample()
	if total := gc1.total - gc0.total; total > 0 {
		p.gcFrac = (gc1.gc - gc0.gc) / total
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	p.mallocs = mem1.Mallocs - mem0.Mallocs
	r.settleFrames()
	p.after = r.counters()
	p.frames = p.after.stats.FramesBinary - p.before.stats.FramesBinary

	sum, err := summarize(sched, p.recs, span, w.limit, nwin)
	p.sum = sum
	if err != nil {
		return p, err
	}
	if maxLag := w.limit / lagShare; sum.lagP99 > maxLag {
		return p, fmt.Errorf("invalid run, not reported: generator lag p99 %.2f ms exceeds %.1f ms", ms(sum.lagP99), ms(maxLag))
	}
	p.problems = append(checkAnswers(p.recs, scenario.DefaultParams().ServerFreqHz), p.checkServer()...)
	p.problems = append(p.problems, p.checkMechanism()...)
	return p, nil
}

// checkServer compares the client's accounting with the coordinator's
// counters over the window.
func (p *phase) checkServer() []string {
	var bad []string
	b, a := p.before.stats, p.after.stats
	for _, c := range []struct {
		name        string
		before, now uint64
	}{
		{"full solves including an expired request", b.FullSolvesExpired, a.FullSolvesExpired},
		{"recovered panics", b.PanicsRecovered, a.PanicsRecovered},
		{"wrong-shard rejections", b.WrongShard, a.WrongShard},
	} {
		if c.now != c.before {
			bad = append(bad, fmt.Sprintf("coordinator counted %d %s", c.now-c.before, c.name))
		}
	}
	s := p.sum
	if want := 2 * uint64(s.sent); p.frames != want {
		bad = append(bad, fmt.Sprintf("coordinator moved %d binary frames for %d requests, want one request and one response frame each (%d)", p.frames, s.sent, want))
	}
	if got := (a.Offloaded + a.Local) - (b.Offloaded + b.Local); got != uint64(s.answered) {
		bad = append(bad, fmt.Sprintf("coordinator made %d decisions, client received %d", got, s.answered))
	}
	if got := (a.ShedAdmission + a.ShedQueueFull) - (b.ShedAdmission + b.ShedQueueFull); got != uint64(s.shed) {
		bad = append(bad, fmt.Sprintf("coordinator shed %d requests, client saw %d", got, s.shed))
	}
	if got := a.ShedExpired - b.ShedExpired; got != uint64(s.expired) {
		bad = append(bad, fmt.Sprintf("coordinator expired %d requests, client saw %d", got, s.expired))
	}
	if s.failed > 0 {
		for i := range p.recs {
			if p.recs[i].outcome == failed {
				bad = append(bad, fmt.Sprintf("%d requests failed; first: %v", s.failed, p.recs[i].err))
				break
			}
		}
	}
	return bad
}

// minRepairRatio is the share of delta epochs that must be repairs on the
// delta workload for its mechanism to count as exercised.
const minRepairRatio = 0.6

// checkMechanism verifies that the workload exercised what it exists to
// exercise, and nothing it exists to leave alone: delta repairs dominate
// only the delta workload, and shedding and brownout occur only under
// overload.
func (p *phase) checkMechanism() []string {
	var bad []string
	repair := p.repairRatio()
	switch {
	case p.w.delta && repair < minRepairRatio:
		bad = append(bad, fmt.Sprintf("delta repair ratio %.3f below %.2f", repair, minRepairRatio))
	case !p.w.delta && repair != 0:
		bad = append(bad, fmt.Sprintf("delta repair ratio %.3f on a workload without delta serving", repair))
	}
	shedRatio, degraded := p.shedRatio(), p.degradedRatio()
	if p.w.brownout {
		if shedRatio == 0 || degraded == 0 {
			bad = append(bad, fmt.Sprintf("overload did not engage: shed ratio %.4f, degraded ratio %.4f", shedRatio, degraded))
		}
	} else if shedRatio != 0 || degraded != 0 {
		bad = append(bad, fmt.Sprintf("shed ratio %.4f, degraded ratio %.4f on a workload sized below capacity", shedRatio, degraded))
	}
	return bad
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (p *phase) repairRatio() float64 {
	b, a := p.before.stats, p.after.stats
	rep := float64(a.DeltaRepairEpochs - b.DeltaRepairEpochs)
	full := float64(a.DeltaFullEpochs - b.DeltaFullEpochs)
	return ratio(rep, rep+full)
}

func (p *phase) shedRatio() float64 {
	return ratio(float64(p.sum.shed+p.sum.expired), float64(p.sum.sent))
}

func (p *phase) degradedRatio() float64 {
	return ratio(float64(p.sum.degraded), float64(p.sum.answered))
}

func (p *phase) epochs() float64 {
	return float64(p.after.stats.Epochs - p.before.stats.Epochs)
}

// meanMs returns the mean of a coordinator histogram (in seconds) over the
// window, in milliseconds.
func meanMs(before, after obs.HistogramSnapshot) float64 {
	return 1000 * ratio(after.Sum-before.Sum, float64(after.Count()-before.Count()))
}

// plainRun is the untraced run behind the end-to-end metrics.
func plainRun(w workload, seed uint64, span time.Duration, out io.Writer) (result, error) {
	var r *rig
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		next, took, err := setUp(w, seed, false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
		if r != nil {
			r.close()
		}
		r = next
	}
	defer r.close()

	sched := makeSchedule(w, seed, span, "r")
	// Start the window from a collected heap, so peak memory does not
	// depend on where set-up left the collector's cycle.
	runtime.GC()
	p, err := measure(r, w, sched, span, max(1, int(span/window)), false)
	if err != nil {
		return result{}, err
	}
	s := p.sum
	fmt.Fprintf(out, "%s seed %d: %d sent, %d answered (%d degraded), %d shed, %d expired, %d failed; lag p99 %.3f ms\n",
		w.name, seed, s.sent, s.answered, s.degraded, s.shed, s.expired, s.failed, ms(s.lagP99))
	report(out, p.problems)
	return result{
		Correct:   len(p.problems) == 0,
		Attempted: s.sent,
		Failed:    s.failed,
		Metrics:   p.endToEnd(setups),
	}, nil
}

// endToEnd reports the end-to-end metrics of an untraced phase, given the
// set-up times of the run.
func (p *phase) endToEnd(setups []float64) map[string]metric {
	s := p.sum
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"goodput_rps":         {s.goodput(p.span), "1/s"},
		"latency_p50_ms":      {ms(s.p50), "ms"},
		"latency_p99_ms":      {ms(s.p99), "ms"},
		"utility_per_request": {s.utility, "utility"},
		"cpu_ms_per_req":      {ratio(ms(p.cpu), float64(s.answered)), "ms"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
	}
}

func report(out io.Writer, problems []string) {
	for _, pr := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", pr)
	}
}

// tracedRun measures the workload's schedule untraced and then traced on
// fresh coordinators, runs the offline solver-layer pass for the rest of
// the time, and reports the per-layer metrics.
func tracedRun(w workload, seed uint64, span time.Duration, out io.Writer) (result, error) {
	third := span / 3
	sched := makeSchedule(w, seed, third, "r")

	plain, _, err := setUp(w, seed, false)
	if err != nil {
		return result{}, err
	}
	a, err := measure(plain, w, sched, third, 1, false)
	plain.close()
	if err != nil {
		return result{}, err
	}

	r, _, err := setUp(w, seed, true)
	if err != nil {
		return result{}, err
	}
	t := newTracer()
	b, err := measure(r, w, sched, third, 1, true)
	r.close()
	if err != nil {
		return result{}, err
	}
	t.addRequests(b.start, sched, b.recs)

	offlineStart := time.Now()
	epochs, err := offlinePass(w, seed, b.offlineDirty(), span-2*third, t)
	if err != nil {
		return result{}, fmt.Errorf("offline pass: %w", err)
	}
	fmt.Fprintf(out, "offline pass: %d epochs in %.2f s\n", epochs, time.Since(offlineStart).Seconds())
	if _, err := t.write(traceDir, w.name, seed, out); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}

	problems := append(a.problems, b.problems...)
	report(out, problems)
	return result{
		Correct:   len(problems) == 0,
		Attempted: a.sum.sent + b.sum.sent,
		Failed:    a.sum.failed + b.sum.failed,
		Metrics:   b.layerMetrics(t, a),
	}, nil
}

// offlineDirty is how many of an epoch's users the offline pass moves past
// the delta threshold: on the delta workload the mean dirty set of the
// measured repair epochs (full epochs refresh a whole batch), otherwise
// every user, since fresh users are all new.
func (p *phase) offlineDirty() int {
	if !p.w.delta {
		return epochSlots
	}
	b, a := p.before.stats, p.after.stats
	full := float64(a.DeltaFullEpochs - b.DeltaFullEpochs)
	rep := float64(a.DeltaRepairEpochs - b.DeltaRepairEpochs)
	rows := float64(a.DeltaDirtyUsers-b.DeltaDirtyUsers) - full*epochSlots
	k := int(math.Round(ratio(rows, rep)))
	return min(max(k, 1), epochSlots)
}

// layerMetrics reports the per-layer metrics of a traced phase, the
// offline pass's spans, and the tracing overhead against the same
// schedule's untraced phase.
func (p *phase) layerMetrics(t *tracer, untraced *phase) map[string]metric {
	b, a := p.before, p.after
	s := p.sum
	sent := float64(s.sent)
	epochs := p.epochs()
	epochMs := meanMs(b.epochLatency, a.epochLatency)
	solveMs := meanMs(b.solve, a.solve)
	d := func(f func(st *serverCounters) uint64) float64 { return float64(f(&a) - f(&b)) }
	bytes := d(func(c *serverCounters) uint64 { return c.stats.BytesRead + c.stats.BytesWritten })
	decisions := d(func(c *serverCounters) uint64 { return c.stats.Offloaded + c.stats.Local })
	deltaEpochs := d(func(c *serverCounters) uint64 { return c.stats.DeltaFullEpochs + c.stats.DeltaRepairEpochs })
	dirty := d(func(c *serverCounters) uint64 { return c.stats.DeltaDirtyUsers })
	reused := d(func(c *serverCounters) uint64 { return c.stats.DeltaRowsReused })
	return map[string]metric{
		"loadgen.sent":        {sent, "count"},
		"loadgen.lag_p99_ms":  {ms(s.lagP99), "ms"},
		"wire.bytes_per_req":  {ratio(bytes, sent), "bytes"},
		"wire.frames_per_req": {ratio(float64(p.frames), sent), "count"},
		"wire.reads_per_req":  {ratio(float64(p.reads), sent), "count"},
		"wire.writes_per_req": {ratio(float64(p.writes), sent), "count"},

		"cran.batch_mean":      {ratio(decisions, epochs), "count"},
		"cran.pre_epoch_ms":    {ms(s.meanLatency) - epochMs, "ms"},
		"cran.shed_ratio":      {p.shedRatio(), "ratio"},
		"cran.shed_admission":  {d(func(c *serverCounters) uint64 { return c.stats.ShedAdmission }), "count"},
		"cran.shed_queue_full": {d(func(c *serverCounters) uint64 { return c.stats.ShedQueueFull }), "count"},
		"cran.shed_expired":    {d(func(c *serverCounters) uint64 { return c.stats.ShedExpired }), "count"},
		"cran.degraded_ratio":  {p.degradedRatio(), "ratio"},

		"cran.epochs":             {epochs, "count"},
		"cran.epoch_latency_ms":   {epochMs, "ms"},
		"cran.solve_ms_per_epoch": {solveMs, "ms"},
		"cran.queue_wait_ms":      {epochMs - solveMs, "ms"},
		"cran.queue_depth_max":    {p.queueMax, "count"},

		"delta.repair_ratio":          {p.repairRatio(), "ratio"},
		"delta.rows_reused_ratio":     {ratio(reused, reused+dirty), "ratio"},
		"delta.dirty_users_per_epoch": {ratio(dirty, deltaEpochs), "count"},
		"delta.plan_us":               {t.meanUs("delta.plan"), "us"},
		"radio.refresh_row_us":        {t.meanUs("radio.refresh_row"), "us"},
		"core.repair_ms":              {t.meanUs("core.repair") / 1000, "ms"},

		"radio.gain_build_us":  {t.meanUs("radio.gain_build"), "us"},
		"scenario.finalize_us": {t.meanUs("scenario.finalize"), "us"},

		"core.solve_ms":        {t.meanUs("core.solve") / 1000, "ms"},
		"core.evals_per_epoch": {ratio(float64(a.evals-b.evals), epochs), "count"},
		"core.accept_ratio":    {ratio(float64(a.accepted-b.accepted), float64(a.priced-b.priced)), "ratio"},
		"objective.eval_us":    {t.meanUs("objective.eval"), "us"},
		"objective.preview_us": {t.meanUs("objective.preview"), "us"},
		"alloc.kkt_us":         {t.meanUs("alloc.kkt"), "us"},
		"solver.verify_us":     {t.meanUs("solver.verify"), "us"},
		"baseline.cheap_ms":    {t.meanUs("baseline.cheap") / 1000, "ms"},

		"process.allocs_per_req": {ratio(float64(p.mallocs), sent), "count"},
		"process.gc_cpu_frac":    {p.gcFrac, "ratio"},

		"trace.p50_overhead_ratio": {ratio(float64(s.p50), float64(untraced.sum.p50)), "ratio"},
	}
}

// sampleQueue polls the coordinator's solve-queue depth gauge every
// millisecond until stop closes and returns the largest depth seen.
func (r *rig) sampleQueue(stop <-chan struct{}) float64 {
	g := r.reg.Gauge("tsajs_coordinator_queue_depth", "")
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	peak := 0.0
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
			peak = math.Max(peak, g.Value())
		}
	}
}

func (r *rig) wireCounts() (reads, writes uint64) {
	if r.wire == nil {
		return 0, 0
	}
	return r.wire.reads.Load(), r.wire.writes.Load()
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

type gcCPU struct{ gc, total float64 }

// gcSample reads the runtime's cumulative GC and total CPU estimates.
func gcSample() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// sortedKeys returns the metric names in order, for the readable listing.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
