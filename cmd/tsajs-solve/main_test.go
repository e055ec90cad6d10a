package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
)

func scenarioJSON(t *testing.T) string {
	t.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = 5
	p.NumServers = 3
	p.NumChannels = 2
	p.Seed = 3
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestSolveFromStdin(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scheme", "tsajs", "-seed", "2"}, strings.NewReader(scenarioJSON(t)), &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"scheme:      TSAJS", "utility:", "offloaded:", "assignment:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSolveFromFileWithDetail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, []byte(scenarioJSON(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{"-in", path, "-scheme", "greedy", "-detail"}, strings.NewReader(""), &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "scheme:      Greedy") {
		t.Errorf("missing scheme line:\n%s", out)
	}
	// The detail blob is valid JSON containing per-user metrics.
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON detail in output:\n%s", out)
	}
	var rep objective.Report
	if err := json.Unmarshal([]byte(out[idx:]), &rep); err != nil {
		t.Fatalf("detail not decodable: %v", err)
	}
	if len(rep.Users) != 5 {
		t.Errorf("detail covers %d users", len(rep.Users))
	}
}

func TestSolveEverySchemeName(t *testing.T) {
	for _, scheme := range []string{"tsajs", "ttsa", "exhaustive", "optimal", "hjtora", "localsearch", "local", "greedy", "TSAJS"} {
		var sb strings.Builder
		err := run([]string{"-scheme", scheme}, strings.NewReader(scenarioJSON(t)), &sb)
		if err != nil {
			t.Errorf("scheme %q: %v", scheme, err)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scheme", "magic"}, strings.NewReader(scenarioJSON(t)), &sb); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(nil, strings.NewReader("{bad json"), &sb); err == nil {
		t.Error("malformed scenario accepted")
	}
	if err := run([]string{"-in", "/does/not/exist.json"}, strings.NewReader(""), &sb); err == nil {
		t.Error("missing file accepted")
	}
}
