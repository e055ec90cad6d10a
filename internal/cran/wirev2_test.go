package cran

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/task"
)

var update = flag.Bool("update", false, "rewrite golden wire vectors under testdata/")

// binaryTestClient dials srv with the multiplexed binary protocol and strict
// JSON-path-equivalent resilience settings (one attempt, no breaker).
func binaryTestClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	cli, err := NewClient(srv.Addr().String(), ResilienceConfig{
		MaxAttempts:      1,
		BreakerThreshold: -1,
		Protocol:         ProtoBinary,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// --- golden wire vectors -----------------------------------------------------

// wireVectors pins the wirev2 byte layout: every message kind the codec can
// produce, encoded with a fixed request ID. The hex fixtures under testdata/
// are the layout's source of truth — a diff there is a wire compatibility
// break and must come with a version bump, not an -update.
func wireVectors() (reqs []struct {
	name string
	id   uint64
	req  OffloadRequest
}, resps []struct {
	name string
	id   uint64
	resp OffloadResponse
}) {
	reqs = []struct {
		name string
		id   uint64
		req  OffloadRequest
	}{
		{
			name: "req-health",
			id:   7,
			req:  OffloadRequest{Version: ProtocolVersion, Type: TypeHealth, UserID: "probe"},
		},
		{
			name: "req-minimal",
			id:   1,
			req: OffloadRequest{
				Version: ProtocolVersion,
				UserID:  "u1",
				Pos:     geom.Point{X: 0.25, Y: -0.5},
				Task:    task.Task{DataBits: 1.5e6, WorkCycles: 2e9},
			},
		},
		{
			name: "req-full",
			id:   300, // two-byte varint ID
			req: OffloadRequest{
				Version:    ProtocolVersion,
				UserID:     "user-full",
				Pos:        geom.Point{X: -0.125, Y: 0.375},
				Task:       task.Task{DataBits: 3.2e6, WorkCycles: 1.8e9, OutputBits: 64e3},
				FLocalHz:   1.2e9,
				TxPowerW:   0.2,
				Kappa:      5e-27,
				BetaTime:   0.5,
				BetaEnergy: 0.5,
				Lambda:     0.9,
				DeadlineMs: 250,
			},
		},
	}
	resps = []struct {
		name string
		id   uint64
		resp OffloadResponse
	}{
		{
			name: "resp-error-queue-full",
			id:   7,
			resp: OffloadResponse{
				Version: ProtocolVersion,
				UserID:  "u1",
				Error:   "solve queue full",
				Code:    CodeQueueFull,
			},
		},
		{
			name: "resp-local",
			id:   1,
			resp: OffloadResponse{
				Version:         ProtocolVersion,
				UserID:          "u1",
				Epoch:           9,
				Server:          -1,
				Channel:         -1,
				ExpectedDelayS:  1.5,
				ExpectedEnergyJ: 0.25,
			},
		},
		{
			name: "resp-offload-degraded",
			id:   300,
			resp: OffloadResponse{
				Version:         ProtocolVersion,
				UserID:          "user-full",
				Offload:         true,
				Degraded:        true,
				Tier:            TierTruncated,
				Epoch:           130,
				Server:          3,
				Channel:         1,
				FUsHz:           2.5e9,
				ExpectedDelayS:  0.75,
				ExpectedEnergyJ: 0.125,
				Utility:         1.0625,
			},
		},
	}
	return reqs, resps
}

// TestWireGoldenVectors checks every vector's encoding against the checked-in
// hex fixture and that decoding the fixture bytes reproduces the struct —
// pinning both directions of the codec byte for byte.
func TestWireGoldenVectors(t *testing.T) {
	reqVecs, respVecs := wireVectors()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "handshake %s\n", hex.EncodeToString(appendHandshake(nil)))
	encoded := map[string][]byte{}
	for _, v := range reqVecs {
		frame := appendRequestFrame(nil, v.id, &v.req)
		encoded[v.name] = frame
		fmt.Fprintf(&buf, "%s %s\n", v.name, hex.EncodeToString(frame))
	}
	for _, v := range respVecs {
		frame := appendResponseFrame(nil, v.id, &v.resp)
		encoded[v.name] = frame
		fmt.Fprintf(&buf, "%s %s\n", v.name, hex.EncodeToString(frame))
	}

	path := filepath.Join("testdata", "wirev2.hex")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/cran -update` to create it)", err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("wire layout drifted from the golden vectors:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), raw)
	}

	// Decode direction: the golden bytes must reproduce the exact structs.
	for _, v := range reqVecs {
		frame := encoded[v.name]
		ft, id, body, err := decodeFramePayload(frame[4:])
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if id != v.id {
			t.Errorf("%s: id = %d, want %d", v.name, id, v.id)
		}
		var got OffloadRequest
		if err := decodeRequestBody(ft, body, &got); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !reflect.DeepEqual(got, v.req) {
			t.Errorf("%s: decode mismatch:\ngot  %+v\nwant %+v", v.name, got, v.req)
		}
	}
	for _, v := range respVecs {
		frame := encoded[v.name]
		ft, id, body, err := decodeFramePayload(frame[4:])
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if id != v.id {
			t.Errorf("%s: id = %d, want %d", v.name, id, v.id)
		}
		var got OffloadResponse
		if err := decodeResponseBody(ft, body, &got); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !reflect.DeepEqual(got, v.resp) {
			t.Errorf("%s: decode mismatch:\ngot  %+v\nwant %+v", v.name, got, v.resp)
		}
	}
}

// TestWireCodecRoundTrip covers shapes the golden vectors do not: health
// responses with an embedded payload, untyped rejections, and trailing-byte
// rejection.
func TestWireCodecRoundTrip(t *testing.T) {
	h := &Health{UptimeS: 12.5, ActiveConns: 3}
	h.Stats.Requests = 9
	hr := OffloadResponse{Version: ProtocolVersion, UserID: "probe", Health: h}
	frame := appendResponseFrame(nil, 99, &hr)
	ft, id, body, err := decodeFramePayload(frame[4:])
	if err != nil || ft != frameHealthResp || id != 99 {
		t.Fatalf("health frame: type=0x%02x id=%d err=%v", ft, id, err)
	}
	var got OffloadResponse
	if err := decodeResponseBody(ft, body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Health == nil || got.Health.UptimeS != h.UptimeS || got.Health.Stats.Requests != 9 {
		t.Errorf("health round trip lost the payload: %+v", got.Health)
	}

	// An untyped rejection (Code == "") survives the code-byte round trip.
	rej := OffloadResponse{Version: ProtocolVersion, UserID: "u", Error: "invalid request: bad task"}
	frame = appendResponseFrame(nil, 5, &rej)
	ft, _, body, err = decodeFramePayload(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeResponseBody(ft, body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Code != "" || got.Error != rej.Error {
		t.Errorf("untyped rejection round trip: %+v", got)
	}

	// Trailing garbage after a complete message is malformed, not ignored.
	withTrailing := append(append([]byte{}, frame[4:]...), 0xAB)
	ft, _, body, err = decodeFramePayload(withTrailing)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeResponseBody(ft, body, &got); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("trailing bytes accepted: %v", err)
	}
}

// --- unsupported version, both codecs ---------------------------------------

// TestUnsupportedVersionJSON pins the typed rejection on the JSON codec: an
// envelope with the wrong version gets CodeUnsupportedVersion and Err()
// unwraps to ErrUnsupportedVersion.
func TestUnsupportedVersionJSON(t *testing.T) {
	srv := startServer(t, testServerConfig())
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := testRequest("versioned", 0, 0)
	req.Version = 99
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	var resp OffloadResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeUnsupportedVersion {
		t.Errorf("code = %q, want %q", resp.Code, CodeUnsupportedVersion)
	}
	if !errors.Is(resp.Err(), ErrUnsupportedVersion) {
		t.Errorf("Err() = %v, want ErrUnsupportedVersion", resp.Err())
	}
}

// TestUnsupportedVersionBinary pins the handshake guard on the binary codec:
// a wrong version byte is answered with one CodeUnsupportedVersion frame and
// the connection is closed.
func TestUnsupportedVersionBinary(t *testing.T) {
	srv := startServer(t, testServerConfig())
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hs := appendHandshake(nil)
	hs[len(hs)-1] = WireVersion + 1
	if _, err := conn.Write(hs); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp := readResponseFrame(t, br)
	if resp.Code != CodeUnsupportedVersion {
		t.Errorf("code = %q, want %q", resp.Code, CodeUnsupportedVersion)
	}
	if !errors.Is(resp.Err(), ErrUnsupportedVersion) {
		t.Errorf("Err() = %v, want ErrUnsupportedVersion", resp.Err())
	}
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection stayed open after a version rejection")
	}
	if srv.Stats().Rejected == 0 {
		t.Error("version rejection not counted")
	}
}

// readResponseFrame reads and decodes one framed binary response.
func readResponseFrame(t *testing.T, br *bufio.Reader) OffloadResponse {
	t.Helper()
	resp, _ := readResponseFrameID(t, br)
	return resp
}

func readResponseFrameID(t *testing.T, br *bufio.Reader) (OffloadResponse, uint64) {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("frame header: %v", err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatalf("frame payload: %v", err)
	}
	ft, id, body, err := decodeFramePayload(payload)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	var resp OffloadResponse
	if err := decodeResponseBody(ft, body, &resp); err != nil {
		t.Fatalf("response body: %v", err)
	}
	return resp, id
}

// --- negotiation and framing hardening ---------------------------------------

// TestProtocolNegotiationInterop serves JSON and binary clients concurrently
// on one listener: the first bytes of each connection select its codec, and
// both populations get coordinator-scheduled decisions.
func TestProtocolNegotiationInterop(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxBatch = 4
	srv := startServer(t, cfg)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proto := ProtoJSON
			if i%2 == 1 {
				proto = ProtoBinary
			}
			cli, err := NewClient(srv.Addr().String(), ResilienceConfig{
				MaxAttempts: 1, BreakerThreshold: -1, Protocol: proto,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			resp, err := cli.Offload(ctx, testRequest(fmt.Sprintf("interop-%d", i), 0.1*float64(i)-0.15, 0.1))
			if err != nil {
				t.Errorf("client %d (%s): %v", i, proto, err)
				return
			}
			if resp.Epoch == 0 {
				t.Errorf("client %d (%s): no epoch stamped: %+v", i, proto, resp)
			}
			if _, err := cli.Health(ctx); err != nil {
				t.Errorf("client %d (%s) health: %v", i, proto, err)
			}
		}(i)
	}
	wg.Wait()

	stats := srv.Stats()
	if stats.FramesJSON == 0 || stats.FramesBinary == 0 {
		t.Errorf("both codecs should have carried frames: json=%d binary=%d",
			stats.FramesJSON, stats.FramesBinary)
	}
}

// TestBinaryMalformedFrameAnsweredConnKept: length-prefixed framing keeps the
// stream boundary intact through a garbage payload, so the server answers
// with an error frame and keeps serving the connection — unlike the JSON
// path, where a malformed line costs the connection.
func TestBinaryMalformedFrameAnsweredConnKept(t *testing.T) {
	srv := startServer(t, testServerConfig())
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(appendHandshake(nil)); err != nil {
		t.Fatal(err)
	}
	// An unknown frame type.
	garbage := []byte{0, 0, 0, 2, 0xFF, 0x01}
	if _, err := conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp := readResponseFrame(t, br)
	if resp.Error == "" || !strings.Contains(resp.Error, "malformed") {
		t.Fatalf("garbage frame not rejected: %+v", resp)
	}

	// The connection still serves: a health probe goes through.
	probe := appendRequestFrame(nil, 2, &OffloadRequest{Type: TypeHealth, UserID: "after-garbage"})
	if _, err := conn.Write(probe); err != nil {
		t.Fatal(err)
	}
	resp = readResponseFrame(t, br)
	if resp.Health == nil {
		t.Errorf("connection dead after malformed frame: %+v", resp)
	}
}

// TestBinaryOversizeFrameClosed: a frame beyond MaxLineBytes gets the typed
// limit rejection and the connection is closed (the length word is
// untrusted).
func TestBinaryOversizeFrameClosed(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxLineBytes = 2048
	srv := startServer(t, cfg)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(appendHandshake(nil)); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<24)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp := readResponseFrame(t, br)
	if resp.Code != CodeTooLarge {
		t.Errorf("code = %q, want %q", resp.Code, CodeTooLarge)
	}
	if !errors.Is(resp.Err(), ErrRequestTooLarge) {
		t.Errorf("Err() = %v, want ErrRequestTooLarge", resp.Err())
	}
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection stayed open after an oversize frame")
	}
	if srv.Stats().OversizeRequests == 0 {
		t.Error("oversize frame not counted")
	}
}

// TestBinaryValidationRejectionTyped: a well-framed but invalid request is
// answered on its own request ID with the rejection and the connection
// survives.
func TestBinaryValidationRejection(t *testing.T) {
	srv := startServer(t, testServerConfig())
	cli := binaryTestClient(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	bad := testRequest("bad", 0, 0)
	bad.Task.WorkCycles = -5
	if _, err := cli.Offload(ctx, bad); err == nil {
		t.Error("invalid task accepted over binary transport")
	}
	// Same client, same connection: a valid request still works.
	resp, err := cli.Offload(ctx, testRequest("good", 0.1, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch == 0 {
		t.Errorf("no epoch stamped after rejection: %+v", resp)
	}
}

// --- differential: JSON and binary must produce identical decisions ----------

// TestDifferentialJSONvsBinaryDecisions runs the same sequential request
// series against two identically-seeded coordinators, one through each
// codec, and requires bit-identical decisions — epochs, slots, expectations,
// utilities. The codec must be a transport detail, never a scheduling input.
// Worker counts 1 and 4 cover both the serial and the pipelined solve paths.
func TestDifferentialJSONvsBinaryDecisions(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(protocol string) []OffloadResponse {
				cfg := testServerConfig()
				cfg.MaxBatch = 1 // one epoch per request: deterministic epoch numbering
				cfg.Workers = workers
				srv := startServer(t, cfg)
				cli, err := NewClient(srv.Addr().String(), ResilienceConfig{
					MaxAttempts: 1, BreakerThreshold: -1, Protocol: protocol,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer cli.Close()
				reqs := waveRequests(3, 6)
				out := make([]OffloadResponse, len(reqs))
				for i, req := range reqs {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					out[i], err = cli.Offload(ctx, req)
					cancel()
					if err != nil {
						t.Fatalf("%s request %d: %v", protocol, i, err)
					}
				}
				return out
			}
			viaJSON := run(ProtoJSON)
			viaBinary := run(ProtoBinary)
			for i := range viaJSON {
				if !reflect.DeepEqual(viaJSON[i], viaBinary[i]) {
					t.Errorf("request %d diverged across codecs:\njson   %+v\nbinary %+v",
						i, viaJSON[i], viaBinary[i])
				}
			}
		})
	}
}

// --- multiplexing ------------------------------------------------------------

// TestMuxConcurrentOffloadsShareConnection is the multiplexing headline: many
// concurrent Offload calls ride one connection (one dial), land in a shared
// epoch, and get disjoint slots — the joint-scheduling behaviour that
// previously required one connection per client.
func TestMuxConcurrentOffloadsShareConnection(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxBatch = 6
	srv := startServer(t, cfg)

	var dials atomic.Int64
	cli, err := NewClient(srv.Addr().String(), ResilienceConfig{
		MaxAttempts: 1, BreakerThreshold: -1, Protocol: ProtoBinary,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const n = 6
	responses := make([]OffloadResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			responses[i], errs[i] = cli.Offload(ctx,
				testRequest(fmt.Sprintf("mux-%d", i), 0.1*float64(i)-0.2, 0.1))
		}(i)
	}
	wg.Wait()

	slots := make(map[[2]int]string)
	sameEpoch := make(map[uint64]int)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		sameEpoch[responses[i].Epoch]++
		if !responses[i].Offload {
			continue
		}
		key := [2]int{responses[i].Server, responses[i].Channel}
		if prev, taken := slots[key]; taken {
			t.Errorf("slot %v granted to both %s and %s", key, prev, responses[i].UserID)
		}
		slots[key] = responses[i].UserID
	}
	maxShared := 0
	for _, count := range sameEpoch {
		if count > maxShared {
			maxShared = count
		}
	}
	if maxShared < 2 {
		t.Errorf("no two multiplexed calls shared an epoch: %v", sameEpoch)
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("dials = %d, want 1 (multiplexed calls must share the connection)", got)
	}
}

// TestMuxPipelinedFramesOutOfOrder drives the raw wire: N request frames
// written back to back on one connection, all in flight at once, with
// responses routed by request ID regardless of arrival order.
func TestMuxPipelinedFramesOutOfOrder(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxBatch = 5
	srv := startServer(t, cfg)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))

	const n = 5
	buf := appendHandshake(nil)
	for i := 0; i < n; i++ {
		req := testRequest(fmt.Sprintf("pipe-%d", i), 0.12*float64(i)-0.2, 0.05)
		req.Task.WorkCycles = 2000e6 + 500e6*float64(i%3)
		buf = appendRequestFrame(buf, uint64(100+i), &req)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	byID := make(map[uint64]OffloadResponse, n)
	for i := 0; i < n; i++ {
		resp, id := readResponseFrameID(t, br)
		if _, dup := byID[id]; dup {
			t.Fatalf("request ID %d answered twice", id)
		}
		byID[id] = resp
	}
	for i := 0; i < n; i++ {
		resp, ok := byID[uint64(100+i)]
		if !ok {
			t.Fatalf("request ID %d never answered", 100+i)
		}
		if resp.UserID != fmt.Sprintf("pipe-%d", i) {
			t.Errorf("ID %d answered as %q", 100+i, resp.UserID)
		}
		if resp.Error != "" {
			t.Errorf("ID %d failed: %s", 100+i, resp.Error)
		}
	}
}

// TestMuxContextExpiryKeepsConnection: a context expiry abandons one waiter.
// On a binary connection the other calls multiplexed on it keep the
// connection (one dial); a JSON connection is dropped and redialed, since a
// later request would queue behind the abandoned one on the server's serial
// line reader.
func TestMuxContextExpiryKeepsConnection(t *testing.T) {
	for _, tc := range []struct {
		proto string
		dials uint64
	}{
		{ProtoBinary, 1},
		{ProtoJSON, 2},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			cfg := testServerConfig()
			cfg.BatchWindow = 150 * time.Millisecond
			cfg.MaxBatch = 1000
			srv := startServer(t, cfg)
			m := obs.NewClientMetrics(obs.NewRegistry())
			cli, err := NewClient(srv.Addr().String(), ResilienceConfig{
				MaxAttempts: 1, BreakerThreshold: -1, Protocol: tc.proto, Metrics: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			shortCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			if _, err := cli.Offload(shortCtx, testRequest("expired", 0.1, 0)); err == nil {
				t.Fatal("request succeeded despite expired context")
			}
			ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel2()
			resp, err := cli.Offload(ctx, testRequest("survivor", 0.1, 0.05))
			if err != nil {
				t.Fatalf("client did not recover from a sibling's context expiry: %v", err)
			}
			if resp.UserID != "survivor" {
				t.Errorf("answered as %q", resp.UserID)
			}
			if got := m.Dials.Value(); got != tc.dials {
				t.Errorf("dials = %d, want %d", got, tc.dials)
			}
		})
	}
}

// TestJSONAnswersInRequestOrder: two request lines written back to back on
// one raw JSON connection are answered in request order. The user IDs sort
// against request order, so had both requests ridden one epoch, the
// solver's user-ID order would have answered them reversed.
func TestJSONAnswersInRequestOrder(t *testing.T) {
	srv := startServer(t, testServerConfig())
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	var lines []byte
	for _, id := range []string{"zz-sent-first", "aa-sent-second"} {
		req := testRequest(id, 0.1, 0.05)
		req.Version = ProtocolVersion
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, b...), '\n')
	}
	if _, err := conn.Write(lines); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	for _, want := range []string{"zz-sent-first", "aa-sent-second"} {
		var resp OffloadResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("waiting for %s: %v", want, err)
		}
		if resp.UserID != want || resp.Error != "" {
			t.Fatalf("got %+v, want a decision for %s", resp, want)
		}
	}
}

// TestBinaryConnectionCapRejects: a binary client over MaxConns is refused
// in its own codec, so it reports the capacity rejection instead of
// misreading a JSON line as a frame header.
func TestBinaryConnectionCapRejects(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxConns = 1
	srv := startServer(t, cfg)
	holder := binaryTestClient(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A health probe forces the lazy dial so the slot is actually held.
	if _, err := holder.Health(ctx); err != nil {
		t.Fatal(err)
	}

	cli, err := DialBinary(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Offload(ctx, testRequest("over-cap", 0.1, 0.05))
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("over-cap binary client got %v, want a capacity rejection", err)
	}
	if srv.Stats().ThrottledConns == 0 {
		t.Error("throttled connection not counted")
	}
}

// --- resilience over the multiplexed transport -------------------------------

// TestMuxChaosDegrades: fatal transport faults on the multiplexed connection
// end in a graceful local decision, exactly like the JSON path.
func TestMuxChaosDegrades(t *testing.T) {
	srv := startServer(t, testServerConfig())
	cli, err := DialResilient(srv.Addr().String(), ResilienceConfig{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		Protocol:    ProtoBinary,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return faults.WrapConn(conn, faults.ChaosConfig{ResetProb: 1}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := cli.Offload(ctx, testRequest("mux-chaos", 0.1, 0.05))
	if err != nil {
		t.Fatalf("chaos fault leaked as error instead of degrading: %v", err)
	}
	if !resp.Degraded || resp.Offload {
		t.Errorf("want local degraded decision, got %+v", resp)
	}
}

// TestMuxServerRestartRedials: killing the coordinator mid-conversation drops
// the mux; the next call on a fresh coordinator at the same address redials
// transparently.
func TestMuxServerRestartRedials(t *testing.T) {
	srv := startServer(t, testServerConfig())
	addr := srv.Addr().String()
	cli, err := NewClient(addr, ResilienceConfig{
		MaxAttempts: 4, BackoffBase: time.Millisecond, BreakerThreshold: -1,
		Protocol: ProtoBinary,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cli.Offload(ctx, testRequest("before-restart", 0.1, 0.05)); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	cfg := testServerConfig()
	cfg.Listener = ln
	srv2, err := NewServer("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	resp, err := cli.Offload(ctx, testRequest("after-restart", 0.1, 0.05))
	if err != nil {
		t.Fatalf("mux did not recover across a coordinator restart: %v", err)
	}
	if resp.Degraded {
		t.Errorf("recovery degraded instead of redialing: %+v", resp)
	}
}

// --- wire accounting ---------------------------------------------------------

// TestWireStatsAccounting checks the transport counters: bytes in both
// directions, frames by codec, and the in-flight gauge draining back to zero.
func TestWireStatsAccounting(t *testing.T) {
	srv := startServer(t, testServerConfig())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jcli, err := NewClient(srv.Addr().String(), ResilienceConfig{MaxAttempts: 1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer jcli.Close()
	if _, err := jcli.Offload(ctx, testRequest("stats-json", 0.1, 0.05)); err != nil {
		t.Fatal(err)
	}
	bcli := binaryTestClient(t, srv)
	if _, err := bcli.Offload(ctx, testRequest("stats-binary", 0.1, 0.05)); err != nil {
		t.Fatal(err)
	}

	// The server counts a response frame only after its Write returns, so
	// the client can hold the response before the counter moves.
	waitUntil(t, 5*time.Second, "both codecs' response frames to be counted", func() bool {
		st := srv.Stats()
		return st.FramesJSON >= 2 && st.FramesBinary >= 2
	})
	stats := srv.Stats()
	if stats.BytesRead == 0 || stats.BytesWritten == 0 {
		t.Errorf("wire byte counters empty: read=%d written=%d", stats.BytesRead, stats.BytesWritten)
	}
	// One request + one response per codec at minimum.
	if stats.FramesJSON < 2 {
		t.Errorf("json frames = %d, want >= 2", stats.FramesJSON)
	}
	if stats.FramesBinary < 2 {
		t.Errorf("binary frames = %d, want >= 2", stats.FramesBinary)
	}
	if stats.InflightRequests != 0 {
		t.Errorf("inflight requests = %d after all responses, want 0", stats.InflightRequests)
	}
}

// --- fuzzing -----------------------------------------------------------------

// FuzzWireCodec feeds arbitrary bytes through the frame decoder and, for
// every payload that decodes, requires the canonical re-encode to be a fixed
// point: encode(decode(data)) must decode to the same message and re-encode
// to the same bytes. Byte-level comparison sidesteps NaN inequality while
// still pinning every field.
func FuzzWireCodec(f *testing.F) {
	reqVecs, respVecs := wireVectors()
	for _, v := range reqVecs {
		f.Add(appendRequestFrame(nil, v.id, &v.req)[4:])
	}
	for _, v := range respVecs {
		f.Add(appendResponseFrame(nil, v.id, &v.resp)[4:])
	}
	h := &Health{UptimeS: 1}
	f.Add(appendResponseFrame(nil, 3, &OffloadResponse{UserID: "h", Health: h})[4:])
	f.Add([]byte{0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, id, body, err := decodeFramePayload(data)
		if err != nil {
			return
		}
		switch ft {
		case frameOffloadReq, frameHealthReq:
			var req OffloadRequest
			if err := decodeRequestBody(ft, body, &req); err != nil {
				return
			}
			enc1 := appendRequestFrame(nil, id, &req)
			ft2, id2, body2, err := decodeFramePayload(enc1[4:])
			if err != nil {
				t.Fatalf("re-decode of canonical request failed: %v", err)
			}
			if id2 != id {
				t.Fatalf("request ID drifted: %d -> %d", id, id2)
			}
			var req2 OffloadRequest
			if err := decodeRequestBody(ft2, body2, &req2); err != nil {
				t.Fatalf("re-decode of canonical request body failed: %v", err)
			}
			if enc2 := appendRequestFrame(nil, id, &req2); !bytes.Equal(enc1, enc2) {
				t.Fatalf("request encoding is not a fixed point:\nenc1 %x\nenc2 %x", enc1, enc2)
			}
		case frameOffloadResp, frameHealthResp:
			var resp OffloadResponse
			if err := decodeResponseBody(ft, body, &resp); err != nil {
				return
			}
			enc1 := appendResponseFrame(nil, id, &resp)
			ft2, id2, body2, err := decodeFramePayload(enc1[4:])
			if err != nil {
				t.Fatalf("re-decode of canonical response failed: %v", err)
			}
			if id2 != id {
				t.Fatalf("response ID drifted: %d -> %d", id, id2)
			}
			var resp2 OffloadResponse
			if err := decodeResponseBody(ft2, body2, &resp2); err != nil {
				t.Fatalf("re-decode of canonical response body failed: %v", err)
			}
			if enc2 := appendResponseFrame(nil, id, &resp2); !bytes.Equal(enc1, enc2) {
				t.Fatalf("response encoding is not a fixed point:\nenc1 %x\nenc2 %x", enc1, enc2)
			}
		}
	})
}

// --- benchmarks --------------------------------------------------------------

// BenchmarkWireCodec pins the codec cost: one full request+response
// encode/decode cycle per iteration, binary against the JSON line codec on
// the same messages. The binary allocs/op (the two decoded user-ID strings)
// is gated by `make bench-check`; the ISSUE target is at least a 2x
// reduction against JSON.
func BenchmarkWireCodec(b *testing.B) {
	req := OffloadRequest{
		Version:    ProtocolVersion,
		UserID:     "bench-user-42",
		Pos:        geom.Point{X: 0.25, Y: -0.5},
		Task:       task.Task{DataBits: 420 * 8 * 1024, WorkCycles: 3000e6},
		DeadlineMs: 250,
	}
	resp := OffloadResponse{
		Version:         ProtocolVersion,
		UserID:          "bench-user-42",
		Offload:         true,
		Epoch:           1234,
		Server:          3,
		Channel:         1,
		FUsHz:           2.5e9,
		ExpectedDelayS:  0.75,
		ExpectedEnergyJ: 0.125,
		Utility:         1.0625,
	}

	b.Run("codec=binary", func(b *testing.B) {
		var buf []byte
		var dreq OffloadRequest
		var dresp OffloadResponse
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendRequestFrame(buf[:0], 42, &req)
			ft, _, body, err := decodeFramePayload(buf[4:])
			if err != nil {
				b.Fatal(err)
			}
			if err := decodeRequestBody(ft, body, &dreq); err != nil {
				b.Fatal(err)
			}
			buf = appendResponseFrame(buf[:0], 42, &resp)
			ft, _, body, err = decodeFramePayload(buf[4:])
			if err != nil {
				b.Fatal(err)
			}
			if err := decodeResponseBody(ft, body, &dresp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=json", func(b *testing.B) {
		var dreq OffloadRequest
		var dresp OffloadResponse
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rline, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			if err := json.Unmarshal(rline, &dreq); err != nil {
				b.Fatal(err)
			}
			sline, err := json.Marshal(resp)
			if err != nil {
				b.Fatal(err)
			}
			if err := json.Unmarshal(sline, &dresp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
