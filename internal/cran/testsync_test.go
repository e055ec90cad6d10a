package cran

import (
	"testing"
	"time"
)

// waitUntil polls cond every millisecond until it holds, failing the test
// after the deadline. Timing tests use it in place of fixed sleeps: the
// condition names the state being awaited, the poll reaches it as soon as it
// is true on slow and fast machines alike, and the deadline turns a hang
// into a diagnosis instead of a flake.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// chanSink is a replySink that hands each answer to the test through a
// buffered channel. Like a connection writer it never blocks the caller: an
// answer that finds the buffer full is dropped.
type chanSink chan OffloadResponse

func (c chanSink) send(_ uint64, resp OffloadResponse) {
	select {
	case c <- resp:
	default:
	}
}

// handleSync decodes and dispatches one JSON request line, as a JSON
// connection's reader does, and waits for its answer.
func handleSync(t testing.TB, srv *Server, line []byte) OffloadResponse {
	t.Helper()
	sink := make(chanSink, 1)
	srv.lis.dispatchLine(line, sink)
	select {
	case resp := <-sink:
		return resp
	case <-time.After(30 * time.Second):
		t.Fatalf("no answer to %q", line)
		return OffloadResponse{}
	}
}
