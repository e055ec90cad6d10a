package cran

import (
	"encoding/json"
	"testing"

	"github.com/tsajs/tsajs/internal/task"
)

// FuzzHandleRequest hardens the coordinator's request parser/validator:
// the JSON decode and dispatch path must never panic and must never forward an invalid
// request to the scheduler. Scheduling itself is bypassed by closing the
// server's quit channel first, so accepted requests fail fast with the
// shutdown error rather than blocking on the batcher.
func FuzzHandleRequest(f *testing.F) {
	good := OffloadRequest{
		Version: ProtocolVersion,
		UserID:  "fuzz",
		Task:    task.Task{DataBits: 1e6, WorkCycles: 1e9},
	}
	blob, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"userId":"x","task":{"dataBits":-1}}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(`{"version":1,"userId":"x","task":{"dataBits":1e308,"workCycles":1e308}}`))

	srv, err := NewServer("127.0.0.1:0", testServerConfig())
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		resp := handleSync(t, srv, data)
		if resp.Version != ProtocolVersion {
			t.Fatalf("response carries version %d", resp.Version)
		}
		// Every path through a closed server must produce an error
		// response (malformed, invalid, or shutdown).
		if resp.Error == "" {
			t.Fatalf("closed server produced a success response for %q", data)
		}
	})
}
