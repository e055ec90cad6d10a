package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestScheduleDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		a := makeSchedule(w, 7, 2*time.Second, "r")
		b := makeSchedule(w, 7, 2*time.Second, "r")
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different schedules", w.name)
		}
		if reflect.DeepEqual(a, makeSchedule(w, 8, 2*time.Second, "r")) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		// Poisson count over 2 s: within five standard deviations of the rate.
		want := 2 * w.rate
		if n := float64(len(a)); math.Abs(n-want) > 5*math.Sqrt(want) {
			t.Errorf("%s: %d arrivals in 2 s, want about %.0f", w.name, len(a), want)
		}
		for i := range a {
			if a[i].at < 0 || a[i].at >= 2*time.Second || (i > 0 && a[i].at < a[i-1].at) {
				t.Fatalf("%s: arrival %d at %s is out of order or outside the span", w.name, i, a[i].at)
			}
			if err := a[i].req.Validate(); err != nil {
				t.Fatalf("%s: request %d invalid: %v", w.name, i, err)
			}
		}
	}
}

func TestFreshUsersAreDistinctAndPopulationIsStable(t *testing.T) {
	fresh, _ := workloadByName("serve-fresh")
	seen := make(map[string]bool)
	for _, r := range makeSchedule(fresh, 3, time.Second, "r") {
		if seen[r.req.UserID] {
			t.Fatalf("fresh user %s repeated", r.req.UserID)
		}
		seen[r.req.UserID] = true
	}
	d, _ := workloadByName("serve-delta")
	sched := makeSchedule(d, 3, time.Second, "r")
	// Every round of population-size requests holds each user exactly once.
	for lo := 0; lo+d.population <= len(sched); lo += d.population {
		round := make(map[string]bool)
		for _, r := range sched[lo : lo+d.population] {
			round[r.req.UserID] = true
		}
		if len(round) != d.population {
			t.Fatalf("round at %d holds %d distinct users, want %d", lo, len(round), d.population)
		}
	}
}

func TestNearestRankQuantile(t *testing.T) {
	for _, c := range []struct{ n, pct, rank, beyond int }{
		{1, 50, 1, 0},
		{100, 50, 50, 50},
		{100, 99, 99, 1},
		{101, 99, 100, 1},
		{999, 99, 990, 9},
		{1000, 99, 990, 10},
		{1000, 50, 500, 500},
	} {
		if got := nearestRank(c.n, c.pct); got != c.rank {
			t.Errorf("nearestRank(%d, %d) = %d, want %d", c.n, c.pct, got, c.rank)
		}
		if got := beyond(c.n, c.pct); got != c.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.pct, got, c.beyond)
		}
	}
	sorted := make([]time.Duration, 200)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := quantile(sorted, 50); got != 100*time.Millisecond {
		t.Errorf("p50 of 1..200 ms = %s, want 100ms", got)
	}
	if got := quantile(sorted, 99); got != 198*time.Millisecond {
		t.Errorf("p99 of 1..200 ms = %s, want 198ms", got)
	}
}

// answeredRecords returns n requests spread over span, all answered at lat.
func answeredRecords(n int, span, lat time.Duration) ([]request, []record) {
	sched := make([]request, n)
	recs := make([]record, n)
	for i := range sched {
		sched[i].at = time.Duration(i) * span / time.Duration(n)
		recs[i] = record{outcome: answered, outcomes: 1, echoOK: true, latency: lat, utility: 1}
	}
	return sched, recs
}

func TestSummaryTailRuleNeedsTenBeyondP99(t *testing.T) {
	sched, recs := answeredRecords(999, time.Second, time.Millisecond)
	if _, err := summarize(sched, recs, time.Second, time.Second, 1); err == nil {
		t.Fatal("999 answered requests reported a p99 with only 9 samples beyond it")
	}
	sched, recs = answeredRecords(1000, time.Second, time.Millisecond)
	if _, err := summarize(sched, recs, time.Second, time.Second, 1); err != nil {
		t.Fatalf("1000 answered requests: %v", err)
	}
	// Every window needs its own tail.
	sched, recs = answeredRecords(1500, time.Second, time.Millisecond)
	if _, err := summarize(sched, recs, time.Second, time.Second, 2); err == nil {
		t.Fatal("two windows of 750 answered requests each reported a p99")
	}
}

func TestMissesLowerGoodputAndStayOutOfLatency(t *testing.T) {
	const n = 2000
	span := time.Second
	sched, recs := answeredRecords(n, span, 5*time.Millisecond)
	base, err := summarize(sched, recs, span, 50*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Turn 30 requests into misses of every kind, each with a latency far
	// beyond anything answered.
	for i := 0; i < 30; i++ {
		recs[i*50].outcome = []outcome{shed, expired, failed}[i%3]
		recs[i*50].latency = time.Hour
	}
	got, err := summarize(sched, recs, span, 50*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.goodput(span) != base.goodput(span)-30 {
		t.Errorf("goodput %.0f/s with 30 misses, want %.0f/s", got.goodput(span), base.goodput(span)-30)
	}
	if got.p99 != 5*time.Millisecond || got.p50 != 5*time.Millisecond {
		t.Errorf("misses entered the latency sample: p50 %s, p99 %s", got.p50, got.p99)
	}
	if got.shed != 10 || got.expired != 10 || got.failed != 10 || got.answered != n-30 {
		t.Errorf("accounting %+v", got)
	}
	// An answer past the latency limit is answered but not good.
	recs[1].latency = 60 * time.Millisecond
	late, err := summarize(sched, recs, span, 50*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if late.good != got.good-1 || late.answered != got.answered {
		t.Errorf("late answer: good %d answered %d, want %d and %d", late.good, late.answered, got.good-1, got.answered)
	}
}

func TestCheckAnswers(t *testing.T) {
	const hz = 20e9
	ok := []record{
		{outcome: answered, outcomes: 1, echoOK: true, offload: true, epoch: 1, server: 0, channel: 0, fusHz: 12e9},
		{outcome: answered, outcomes: 1, echoOK: true, offload: true, epoch: 1, server: 0, channel: 1, fusHz: 8e9},
		{outcome: answered, outcomes: 1, echoOK: true, offload: true, epoch: 2, server: 0, channel: 0, fusHz: 20e9},
		{outcome: shed, outcomes: 1},
	}
	if bad := checkAnswers(ok, hz); len(bad) != 0 {
		t.Fatalf("valid answers flagged: %v", bad)
	}
	for name, mutate := range map[string]func([]record){
		"shared slot":     func(r []record) { r[1].channel = 0 },
		"over capacity":   func(r []record) { r[1].fusHz = 9e9 },
		"wrong user":      func(r []record) { r[0].echoOK = false },
		"two outcomes":    func(r []record) { r[3].outcomes = 2 },
		"never answered":  func(r []record) { r[3] = record{} },
		"infinite answer": func(r []record) { r[0].utility = math.Inf(-1) },
	} {
		recs := append([]record(nil), ok...)
		mutate(recs)
		if bad := checkAnswers(recs, hz); len(bad) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a.root", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "b.x", StartUs: 10, EndUs: 40},
		{ID: 3, Parent: 1, Name: "b.y", StartUs: 30, EndUs: 50},  // overlaps x
		{ID: 4, Parent: 1, Name: "c.z", StartUs: 90, EndUs: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d.w", StartUs: 20, EndUs: 25},
	}
	want := []float64{100 - 40 - 10, 30 - 5, 20, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTraceOutputParses(t *testing.T) {
	for _, w := range workloads {
		tr := newTracer()
		sched, recs := answeredRecords(50, 10*time.Millisecond, 3*time.Millisecond)
		for i := range recs {
			recs[i].lag = time.Duration(i) * time.Microsecond
		}
		tr.addRequests(tr.origin, sched, recs)
		dirty := epochSlots
		if w.delta {
			dirty = 3
		}
		epochs, err := offlinePass(w, 5, dirty, 0, tr)
		if err != nil {
			t.Fatalf("%s: offline pass: %v", w.name, err)
		}
		if epochs < 2 {
			t.Fatalf("%s: offline pass ran %d epochs, want at least 2", w.name, epochs)
		}
		dir := t.TempDir()
		var out bytes.Buffer
		path, err := tr.write(dir, w.name, 5, &out)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc traceFile
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: trace does not parse: %v", w.name, err)
		}
		ids := make(map[uint64]bool)
		for _, s := range doc.Spans {
			ids[s.ID] = true
			if s.EndUs < s.StartUs {
				t.Errorf("%s: span %s ends before it starts", w.name, s.Name)
			}
		}
		for _, s := range doc.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %s names missing parent %d", w.name, s.Name, s.Parent)
			}
		}
		for i, self := range selfTimes(doc.Spans) {
			if self < 0 {
				t.Errorf("%s: span %s has negative self time %g", w.name, doc.Spans[i].Name, self)
			}
		}
		layers := make(map[string]bool)
		for _, lt := range doc.Rollup {
			layers[lt.Layer] = true
			if lt.SelfMs < 0 {
				t.Errorf("%s: layer %s has negative self time", w.name, lt.Layer)
			}
		}
		for _, l := range []string{"loadgen", "client", "offline", "radio", "scenario", "core", "objective", "alloc", "solver", "baseline", "delta"} {
			if !layers[l] {
				t.Errorf("%s: roll-up lacks layer %s", w.name, l)
			}
		}
		if !strings.Contains(out.String(), "self_ms") {
			t.Errorf("%s: roll-up not printed: %q", w.name, out.String())
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		w, err := workloadByName(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []float64{w.rate, w.sustainable} {
			if s := strconv.FormatFloat(rate, 'f', -1, 64); !strings.Contains(bw.Why, s+" req/s") {
				t.Errorf("%s: why %q does not record %s req/s", w.name, bw.Why, s)
			}
		}
	}
	p := &phase{w: workloads[0]}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, m map[string]metric) {
		got := make(map[string]string)
		for _, l := range listed {
			got[l.Name] = l.Unit
		}
		want := make(map[string]string)
		for k, v := range m {
			want[k] = v.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics in BENCHMARK.json %v, program reports %v", kind, sortedUnits(got), sortedUnits(want))
		}
	}
	check("end_to_end", bf.EndToEnd, p.endToEnd([]float64{1}))
	check("per_layer", bf.PerLayer, p.layerMetrics(newTracer(), p))
}

func sortedUnits(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+" ("+v+")")
	}
	sort.Strings(out)
	return out
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-fresh", "--trace", "2"},
		{"--workload", "serve-fresh", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestTracedRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a coordinator for several seconds")
	}
	t.Chdir(t.TempDir())
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "serve-fresh", "--seed", "3", "--seconds", "3", "--trace", "1"}, &out, &errOut); code != 0 {
		if strings.Contains(errOut.String(), "generator lag") {
			// A machine too slow to keep the schedule (the race detector
			// slows everything several times) yields an invalid run by
			// design; there are no numbers to check.
			t.Skip(strings.TrimSpace(errOut.String()))
		}
		t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	if _, err := os.Stat(filepath.Join(traceDir, "trace-serve-fresh.json")); err != nil {
		t.Fatalf("trace not written: %v", err)
	}
}
