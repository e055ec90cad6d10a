package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/obs"
)

func startTestRouter(t *testing.T) (*Router, []int) {
	t.Helper()
	r, _, assignment := startTestRouterWith(t, cran.Limits{})
	return r, assignment
}

// startTestRouterWith starts a two-shard cluster and a router in front of it
// serving under lim, and returns the router, the shard addresses and the
// cell assignment.
func startTestRouterWith(t *testing.T, lim cran.Limits) (*Router, []string, []int) {
	t.Helper()
	addrs, assignment := startSmallCluster(t)
	r, err := NewRouter("127.0.0.1:0", RouterConfig{
		Client: ClientConfig{
			Addrs:      addrs,
			Sites:      diffSites(),
			Assignment: assignment,
			Resilience: cran.ResilienceConfig{Protocol: cran.ProtoBinary, MaxAttempts: 1, BreakerThreshold: -1},
		},
		Limits:  lim,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r, addrs, assignment
}

// metricValue returns the value of one Prometheus series (name plus labels,
// exactly as rendered) in prom, or -1 when the series is absent.
func metricValue(prom, series string) float64 {
	for _, line := range strings.Split(prom, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil {
				return f
			}
		}
	}
	return -1
}

// TestRouterForwardsAcrossShards drives the router with a plain client of
// each codec: requests in cells owned by different shards come back with
// correct decisions, a health probe returns the merged cluster view, and
// the router's wire counters see the traffic in that codec only.
func TestRouterForwardsAcrossShards(t *testing.T) {
	for _, tc := range []struct {
		codec, other string
		dial         func(string) (*cran.Client, error)
	}{
		{"json", "binary", cran.Dial},
		{"binary", "json", cran.DialBinary},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			r, _ := startTestRouter(t)
			cli, err := tc.dial(r.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = cli.Close() }()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			sites := diffSites()
			for _, cell := range []int{0, 6} { // shard 0 and shard 1 territory
				resp, err := cli.Offload(ctx, walkerReq("router-user", geom.Point{X: sites[cell].X + 0.02, Y: sites[cell].Y}))
				if err != nil {
					t.Fatalf("cell %d: %v", cell, err)
				}
				if resp.Offload && resp.Server != cell {
					t.Errorf("cell %d: offloaded to %d", cell, resp.Server)
				}
			}

			h, err := cli.Health(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if h.Stats.ShardCount != 2 {
				t.Errorf("health through router: ShardCount = %d, want 2", h.Stats.ShardCount)
			}
			if h.Stats.Requests != 2 {
				t.Errorf("health through router: Requests = %d, want 2", h.Stats.Requests)
			}
			if got := r.Client().Handoffs(); got != 1 {
				t.Errorf("router fan-out handoffs = %d, want 1", got)
			}

			prom := string(r.Client().Metrics().PrometheusText())
			for _, want := range []string{
				"tsajs_router_requests_total 3", // two offloads + one health probe
				"tsajs_router_latency_seconds_count 3",
				"tsajs_shard_handoffs_total 1",
			} {
				if !strings.Contains(prom, want) {
					t.Errorf("router metrics missing %q", want)
				}
			}
			// The three requests are counted as read before they are
			// dispatched; their answers may still be in the writer.
			if got := metricValue(prom, "tsajs_router_bytes_read_total"); got <= 0 {
				t.Errorf("tsajs_router_bytes_read_total = %v, want > 0", got)
			}
			if got := metricValue(prom, `tsajs_router_frames_total{codec="`+tc.codec+`"}`); got < 3 {
				t.Errorf("%s frames = %v, want at least the 3 requests", tc.codec, got)
			}
			if got := metricValue(prom, `tsajs_router_frames_total{codec="`+tc.other+`"}`); got != 0 {
				t.Errorf("%s frames = %v, want 0", tc.other, got)
			}
		})
	}
}

// TestRouterRejectsUnsupportedVersion: the router answers an envelope of a
// version the protocol does not speak exactly as a coordinator does,
// instead of forwarding it.
func TestRouterRejectsUnsupportedVersion(t *testing.T) {
	r, addrs, _ := startTestRouterWith(t, cran.Limits{})
	sites := diffSites()
	req := walkerReq("future", geom.Point{X: sites[0].X, Y: sites[0].Y + 0.02})
	req.Version = 99
	line, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	exchange := func(addr string) cran.OffloadResponse {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
		var resp cran.OffloadResponse
		if err := json.NewDecoder(conn).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	want := exchange(addrs[0])
	if want.Code != cran.CodeUnsupportedVersion {
		t.Fatalf("coordinator answered %+v, want code %q", want, cran.CodeUnsupportedVersion)
	}
	got := exchange(r.Addr().String())
	if got.Error != want.Error || got.Code != want.Code || got.UserID != want.UserID {
		t.Errorf("router answered %+v, coordinator %+v", got, want)
	}
	if n := r.Client().Requests(0) + r.Client().Requests(1); n != 0 {
		t.Errorf("router forwarded %d requests, want 0", n)
	}
}

// TestRouterBinaryConnectionCapRejects: a binary client over the router's
// MaxConns is refused in its own codec and reports the capacity rejection.
func TestRouterBinaryConnectionCapRejects(t *testing.T) {
	r, _, _ := startTestRouterWith(t, cran.Limits{MaxConns: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	holder, err := cran.DialBinary(r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = holder.Close() }()
	// A health probe forces the lazy dial so the slot is actually held.
	if _, err := holder.Health(ctx); err != nil {
		t.Fatal(err)
	}

	cli, err := cran.DialBinary(r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	sites := diffSites()
	_, err = cli.Offload(ctx, walkerReq("over-cap", geom.Point{X: sites[0].X, Y: sites[0].Y + 0.02}))
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("over-cap binary client got %v, want a capacity rejection", err)
	}
	prom := string(r.Client().Metrics().PrometheusText())
	if got := metricValue(prom, "tsajs_router_throttled_conns_total"); got < 1 {
		t.Errorf("tsajs_router_throttled_conns_total = %v, want at least 1", got)
	}
}

// TestRouterAnswersMalformedLines pins the wire hygiene: garbage JSON gets
// an error response, and the connection survives for the next request.
func TestRouterAnswersMalformedLines(t *testing.T) {
	r, _ := startTestRouter(t)
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	rd := bufio.NewReader(conn)

	if _, err := conn.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp cran.OffloadResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Error("malformed line answered without error")
	}

	// The connection still works.
	sites := diffSites()
	req := walkerReq("after-garbage", geom.Point{X: sites[0].X, Y: sites[0].Y + 0.02})
	req.Version = cran.ProtocolVersion
	blob, _ := json.Marshal(req)
	if _, err := conn.Write(append(blob, '\n')); err != nil {
		t.Fatal(err)
	}
	line, err = rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	resp = cran.OffloadResponse{}
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Errorf("valid request after garbage rejected: %s", resp.Error)
	}
}

func TestRouterCloseIdempotent(t *testing.T) {
	r, _ := startTestRouter(t)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
