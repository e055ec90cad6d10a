package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/tsajs/tsajs/internal/solver"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenRegistry builds a registry whose rendering exercises every branch of
// the exposition format: all three kinds, labelled and unlabelled series,
// multiple series per family, label-value escaping, and non-finite floats.
func goldenRegistry() *Registry {
	reg := NewRegistry()

	reg.Counter("tsajs_test_requests_total", "Requests handled.").Add(42)
	reg.Counter("tsajs_test_requests_total", "Requests handled.",
		Label{Key: "scheme", Value: "TSAJS"}).Add(7)
	// Registration order deliberately differs from sort order: "ALO" < "TSAJS".
	reg.Counter("tsajs_test_requests_total", "Requests handled.",
		Label{Key: "scheme", Value: "ALO"}).Inc()

	reg.Gauge("tsajs_test_temperature", "Current annealing temperature.").Set(0.125)
	reg.Gauge("tsajs_test_ratio", "A gauge stuck at +Inf.").Set(math.Inf(1))

	// Label value with every escapable character: backslash, quote, newline.
	reg.Counter("tsajs_test_escapes_total", `Help with a \ backslash
and a newline.`, Label{Key: "path", Value: "a\\b\"c\nd"}).Inc()

	h := reg.Histogram("tsajs_test_delay_seconds", "Per-task delay.",
		[]float64{0.1, 0.5, 2.5})
	for _, v := range []float64{0.05, 0.3, 0.3, 1.0, 99} {
		h.Observe(v)
	}
	reg.Histogram("tsajs_test_empty_seconds", "Histogram with no observations.",
		[]float64{1, 2})

	// The coordinator's solve-queue pipeline family (as registered by
	// internal/cran): pins the exposition of the queue gauges and a latency
	// histogram over the production bucket edges.
	reg.Counter("tsajs_coordinator_epochs_rejected_total",
		"Epoch batches failed at the solve-queue cap (fail-fast backpressure).").Add(3)
	reg.Gauge("tsajs_coordinator_queue_depth",
		"Epoch batches waiting in the solve queue, last sampled.").Set(2)
	reg.Gauge("tsajs_coordinator_inflight_solves",
		"Epoch solves currently executing on solver workers.").Set(1)
	reg.Gauge("tsajs_coordinator_solver_workers",
		"Configured solver worker count.").Set(4)
	lat := reg.Histogram("tsajs_coordinator_epoch_latency_seconds",
		"Collect-to-answer latency per epoch (queue wait + solve + evaluation).",
		DefaultLatencyEdges)
	for _, v := range []float64{0.002, 0.004, 0.05} {
		lat.Observe(v)
	}

	// The overload-resilience family (as registered by internal/cran): the
	// brownout degradation counters by tier, the shed counters by reason,
	// the deadline-expiry counters, and the admission wait-estimate gauge.
	reg.Counter("tsajs_coordinator_epochs_degraded_total",
		"Epochs the brownout controller solved below full quality, by tier.",
		Label{Key: "tier", Value: "truncated"}).Add(5)
	reg.Counter("tsajs_coordinator_epochs_degraded_total",
		"Epochs the brownout controller solved below full quality, by tier.",
		Label{Key: "tier", Value: "cheap"}).Add(2)
	reg.Counter("tsajs_coordinator_epochs_expired_total",
		"Epochs dropped whole at dequeue: every request's deadline had passed.").Inc()
	reg.Counter("tsajs_coordinator_shed_total",
		"Requests shed by backpressure, by reason.",
		Label{Key: "reason", Value: "queue_full"}).Add(11)
	reg.Counter("tsajs_coordinator_shed_total",
		"Requests shed by backpressure, by reason.",
		Label{Key: "reason", Value: "admission"}).Add(6)
	reg.Counter("tsajs_coordinator_shed_total",
		"Requests shed by backpressure, by reason.",
		Label{Key: "reason", Value: "deadline_expired"}).Add(4)
	reg.Counter("tsajs_coordinator_full_solves_expired_total",
		"Full-quality solves that included an already-expired request (serving-path tripwire; stays zero).")
	reg.Gauge("tsajs_coordinator_queue_wait_estimate_seconds",
		"Estimated queue wait for a newly admitted request (EWMA epoch service time times queue depth).").Set(0.0625)

	// The wirev2 transport family (as registered by internal/cran): byte
	// counters for both directions, the per-codec frame counter, and the
	// in-flight request gauge.
	reg.Counter("tsajs_coordinator_bytes_read_total",
		"Bytes read off the wire across both protocols (request lines, frames, handshakes).").Add(4096)
	reg.Counter("tsajs_coordinator_bytes_written_total",
		"Bytes written to the wire across both protocols (response lines and frames).").Add(2048)
	reg.Counter("tsajs_coordinator_frames_total",
		"Protocol frames processed in either direction, by codec.",
		Label{Key: "codec", Value: "json"}).Add(12)
	reg.Counter("tsajs_coordinator_frames_total",
		"Protocol frames processed in either direction, by codec.",
		Label{Key: "codec", Value: "binary"}).Add(30)
	reg.Gauge("tsajs_coordinator_inflight_requests",
		"Admitted requests currently awaiting their epoch's answer.").Set(5)

	// The sharded-tier family: the coordinator's shard identity gauges and
	// mis-routing tripwire (as registered by internal/cran) plus the shard
	// client's rollup and the router's own view (as registered by
	// internal/shard).
	reg.Counter("tsajs_coordinator_wrong_shard_total",
		"Requests rejected because their cell is owned by a different shard (mis-routing tripwire; stays zero in a correctly-routed cluster).")
	reg.Gauge("tsajs_coordinator_shard_index",
		"This coordinator's shard index in the cluster (zero when unpartitioned).").Set(1)
	reg.Gauge("tsajs_coordinator_shard_count",
		"Coordinator shards in the cluster (zero when unpartitioned).").Set(4)
	reg.Gauge("tsajs_coordinator_cells_owned",
		"Cells this shard owns under the cluster's assignment table (zero when unpartitioned).").Set(3)
	reg.Counter("tsajs_shard_requests_total",
		"Requests routed, by owning shard.",
		Label{Key: "shard", Value: "0"}).Add(17)
	reg.Counter("tsajs_shard_requests_total",
		"Requests routed, by owning shard.",
		Label{Key: "shard", Value: "1"}).Add(13)
	reg.Counter("tsajs_shard_handoffs_total",
		"Requests routed to a different shard than the same user's previous request (mobility crossing a shard boundary).").Add(9)
	shardLat := reg.Histogram("tsajs_shard_latency_seconds",
		"Route-to-answer latency per request through the shard fan-out.", DefaultLatencyEdges)
	for _, v := range []float64{0.001, 0.008, 0.02} {
		shardLat.Observe(v)
	}
	reg.Gauge("tsajs_shard_inflight_requests",
		"Requests currently in flight through the shard fan-out.").Set(2)
	reg.Counter("tsajs_router_requests_total",
		"Requests forwarded through the router.").Add(31)
	routerLat := reg.Histogram("tsajs_router_latency_seconds",
		"Receive-to-answer latency per request through the router.", DefaultLatencyEdges)
	for _, v := range []float64{0.003, 0.016} {
		routerLat.Observe(v)
	}
	reg.Gauge("tsajs_router_inflight_requests",
		"Requests currently being forwarded.").Set(1)

	// The adaptive-portfolio family (as recorded by PortfolioMetrics):
	// per-member slot and reduction-win counters plus the cumulative
	// wall-clock budget gauge.
	pm := NewPortfolioMetrics(reg)
	pm.ObserveMembers([]solver.MemberOutcome{
		{Slot: 0, Member: "ttsa", Utility: 18.5, ElapsedMs: 12.5, Won: true},
		{Slot: 1, Member: "cheap", Utility: 15.25, ElapsedMs: 0.5},
	})

	// The annealer's frozen-tail counter (as recorded by SolverMetrics).
	reg.Counter("tsajs_solver_elided_evaluations_total",
		"Rejected candidates of the annealer's frozen tail, counted without being priced.",
		Label{Key: "scheme", Value: "TSAJS"}).Add(8065)
	return reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenPrometheus(t *testing.T) {
	checkGolden(t, "registry.prom", goldenRegistry().PrometheusText())
}

func TestGoldenJSON(t *testing.T) {
	got, err := goldenRegistry().RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The JSON endpoint must stay parseable even with +Inf gauges in play.
	var round map[string][]SeriesJSON
	if err := json.Unmarshal(got, &round); err != nil {
		t.Fatalf("golden JSON does not round-trip: %v", err)
	}
	checkGolden(t, "registry.json", append(got, '\n'))
}

// TestGoldenStableAcrossRegistrationOrder re-registers the same metrics in a
// different order and asserts the rendering is byte-identical — ordering
// comes from sorting, not registration history.
func TestGoldenStableAcrossRegistrationOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tsajs_solver_elided_evaluations_total",
		"Rejected candidates of the annealer's frozen tail, counted without being priced.",
		Label{Key: "scheme", Value: "TSAJS"}).Add(8065)
	pm := NewPortfolioMetrics(reg)
	pm.BudgetMs("cheap").Add(0.5)
	pm.Wins("cheap")
	pm.Slots("cheap").Inc()
	pm.BudgetMs("ttsa").Add(12.5)
	pm.Wins("ttsa").Inc()
	pm.Slots("ttsa").Inc()
	reg.Gauge("tsajs_router_inflight_requests",
		"Requests currently being forwarded.").Set(1)
	routerLat := reg.Histogram("tsajs_router_latency_seconds",
		"Receive-to-answer latency per request through the router.", DefaultLatencyEdges)
	for _, v := range []float64{0.003, 0.016} {
		routerLat.Observe(v)
	}
	reg.Counter("tsajs_router_requests_total",
		"Requests forwarded through the router.").Add(31)
	reg.Gauge("tsajs_shard_inflight_requests",
		"Requests currently in flight through the shard fan-out.").Set(2)
	shardLat := reg.Histogram("tsajs_shard_latency_seconds",
		"Route-to-answer latency per request through the shard fan-out.", DefaultLatencyEdges)
	for _, v := range []float64{0.001, 0.008, 0.02} {
		shardLat.Observe(v)
	}
	reg.Counter("tsajs_shard_handoffs_total",
		"Requests routed to a different shard than the same user's previous request (mobility crossing a shard boundary).").Add(9)
	reg.Counter("tsajs_shard_requests_total",
		"Requests routed, by owning shard.",
		Label{Key: "shard", Value: "1"}).Add(13)
	reg.Counter("tsajs_shard_requests_total",
		"Requests routed, by owning shard.",
		Label{Key: "shard", Value: "0"}).Add(17)
	reg.Gauge("tsajs_coordinator_cells_owned",
		"Cells this shard owns under the cluster's assignment table (zero when unpartitioned).").Set(3)
	reg.Gauge("tsajs_coordinator_shard_count",
		"Coordinator shards in the cluster (zero when unpartitioned).").Set(4)
	reg.Gauge("tsajs_coordinator_shard_index",
		"This coordinator's shard index in the cluster (zero when unpartitioned).").Set(1)
	reg.Counter("tsajs_coordinator_wrong_shard_total",
		"Requests rejected because their cell is owned by a different shard (mis-routing tripwire; stays zero in a correctly-routed cluster).")
	reg.Gauge("tsajs_coordinator_inflight_requests",
		"Admitted requests currently awaiting their epoch's answer.").Set(5)
	reg.Counter("tsajs_coordinator_frames_total",
		"Protocol frames processed in either direction, by codec.",
		Label{Key: "codec", Value: "binary"}).Add(30)
	reg.Counter("tsajs_coordinator_frames_total",
		"Protocol frames processed in either direction, by codec.",
		Label{Key: "codec", Value: "json"}).Add(12)
	reg.Counter("tsajs_coordinator_bytes_written_total",
		"Bytes written to the wire across both protocols (response lines and frames).").Add(2048)
	reg.Counter("tsajs_coordinator_bytes_read_total",
		"Bytes read off the wire across both protocols (request lines, frames, handshakes).").Add(4096)
	reg.Gauge("tsajs_coordinator_queue_wait_estimate_seconds",
		"Estimated queue wait for a newly admitted request (EWMA epoch service time times queue depth).").Set(0.0625)
	reg.Counter("tsajs_coordinator_full_solves_expired_total",
		"Full-quality solves that included an already-expired request (serving-path tripwire; stays zero).")
	reg.Counter("tsajs_coordinator_shed_total",
		"Requests shed by backpressure, by reason.",
		Label{Key: "reason", Value: "deadline_expired"}).Add(4)
	reg.Counter("tsajs_coordinator_shed_total",
		"Requests shed by backpressure, by reason.",
		Label{Key: "reason", Value: "admission"}).Add(6)
	reg.Counter("tsajs_coordinator_shed_total",
		"Requests shed by backpressure, by reason.",
		Label{Key: "reason", Value: "queue_full"}).Add(11)
	reg.Counter("tsajs_coordinator_epochs_expired_total",
		"Epochs dropped whole at dequeue: every request's deadline had passed.").Inc()
	reg.Counter("tsajs_coordinator_epochs_degraded_total",
		"Epochs the brownout controller solved below full quality, by tier.",
		Label{Key: "tier", Value: "cheap"}).Add(2)
	reg.Counter("tsajs_coordinator_epochs_degraded_total",
		"Epochs the brownout controller solved below full quality, by tier.",
		Label{Key: "tier", Value: "truncated"}).Add(5)
	lat := reg.Histogram("tsajs_coordinator_epoch_latency_seconds",
		"Collect-to-answer latency per epoch (queue wait + solve + evaluation).",
		DefaultLatencyEdges)
	for _, v := range []float64{0.002, 0.004, 0.05} {
		lat.Observe(v)
	}
	reg.Gauge("tsajs_coordinator_solver_workers",
		"Configured solver worker count.").Set(4)
	reg.Gauge("tsajs_coordinator_inflight_solves",
		"Epoch solves currently executing on solver workers.").Set(1)
	reg.Gauge("tsajs_coordinator_queue_depth",
		"Epoch batches waiting in the solve queue, last sampled.").Set(2)
	reg.Counter("tsajs_coordinator_epochs_rejected_total",
		"Epoch batches failed at the solve-queue cap (fail-fast backpressure).").Add(3)
	reg.Histogram("tsajs_test_empty_seconds", "Histogram with no observations.",
		[]float64{1, 2})
	h := reg.Histogram("tsajs_test_delay_seconds", "Per-task delay.",
		[]float64{0.1, 0.5, 2.5})
	for _, v := range []float64{0.05, 0.3, 0.3, 1.0, 99} {
		h.Observe(v)
	}
	reg.Counter("tsajs_test_escapes_total", `Help with a \ backslash
and a newline.`, Label{Key: "path", Value: "a\\b\"c\nd"}).Inc()
	reg.Gauge("tsajs_test_ratio", "A gauge stuck at +Inf.").Set(math.Inf(1))
	reg.Gauge("tsajs_test_temperature", "Current annealing temperature.").Set(0.125)
	reg.Counter("tsajs_test_requests_total", "Requests handled.",
		Label{Key: "scheme", Value: "ALO"}).Inc()
	reg.Counter("tsajs_test_requests_total", "Requests handled.",
		Label{Key: "scheme", Value: "TSAJS"}).Add(7)
	reg.Counter("tsajs_test_requests_total", "Requests handled.").Add(42)

	if got, want := reg.PrometheusText(), goldenRegistry().PrometheusText(); !bytes.Equal(got, want) {
		t.Errorf("rendering depends on registration order:\n--- reordered ---\n%s\n--- canonical ---\n%s", got, want)
	}
}
