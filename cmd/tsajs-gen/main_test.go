package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tsajs/tsajs/internal/scenario"
)

func TestGenToStdout(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-users", "5", "-servers", "3", "-channels", "2", "-seed", "9"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var sc scenario.Scenario
	if err := json.Unmarshal([]byte(sb.String()), &sc); err != nil {
		t.Fatalf("output is not a scenario: %v", err)
	}
	if sc.U() != 5 || sc.S() != 3 || sc.N() != 2 {
		t.Errorf("scenario shape %d/%d/%d", sc.U(), sc.S(), sc.N())
	}
	if sc.Seed != 9 {
		t.Errorf("seed = %d", sc.Seed)
	}
}

func TestGenToFileCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	var sb strings.Builder
	err := run([]string{"-users", "3", "-compact", "-o", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Error("wrote to stdout despite -o")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "\n  ") {
		t.Error("compact output is indented")
	}
	var sc scenario.Scenario
	if err := json.Unmarshal(blob, &sc); err != nil {
		t.Fatal(err)
	}
}

func TestGenCustomWorkload(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-users", "2", "-data-kb", "100", "-work-mcycles", "2500"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var sc scenario.Scenario
	if err := json.Unmarshal([]byte(sb.String()), &sc); err != nil {
		t.Fatal(err)
	}
	if got := sc.Users[0].Task.DataBits; got != 100*8*1024 {
		t.Errorf("data = %g bits", got)
	}
	if got := sc.Users[0].Task.WorkCycles; got != 2500e6 {
		t.Errorf("work = %g cycles", got)
	}
}

func TestGenRejectsInvalid(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-users", "0"}, &sb); err == nil {
		t.Error("zero users accepted")
	}
	if err := run([]string{"-beta-time", "2"}, &sb); err == nil {
		t.Error("invalid beta accepted")
	}
}
