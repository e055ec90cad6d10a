package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestReplayRuns(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-epochs", "4", "-users", "10", "-servers", "3", "-channels", "2",
		"-budget", "800", "-seed", "2",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"epoch", "active", "totals:", "utility="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// 4 epochs -> 4 data rows between header and totals.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dataRows := 0
	for _, l := range lines[1:] {
		if strings.HasPrefix(strings.TrimSpace(l), "totals") || l == "" {
			break
		}
		dataRows++
	}
	if dataRows != 4 {
		t.Errorf("got %d epoch rows, want 4:\n%s", dataRows, out)
	}
}

func TestReplayWarmStart(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-epochs", "5", "-users", "12", "-servers", "3", "-channels", "2",
		"-active", "0.9", "-budget", "800", "-warm",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "true") {
		t.Errorf("no warm-started epoch reported:\n%s", sb.String())
	}
}

func TestReplayFaultInjection(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-epochs", "8", "-users", "10", "-servers", "3", "-channels", "2",
		"-budget", "800", "-warm", "-active", "0.9",
		"-fail-prob", "0.4", "-coord-fail-prob", "0.3", "-fault-seed", "9",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"down", "coord", "faults:", "server-availability="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestReplayDeltaUnsolvedEpochs checks the delta columns: an epoch that
// ran no solve (coordinator down, or nobody active) prints "-" for both,
// and every solved epoch names its mode.
func TestReplayDeltaUnsolvedEpochs(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-epochs", "12", "-users", "10", "-servers", "3", "-channels", "2",
		"-budget", "600", "-active", "0.9", "-delta",
		"-coord-fail-prob", "0.4", "-fault-seed", "9",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	down := 0
	for _, l := range strings.Split(sb.String(), "\n")[1:] {
		f := strings.Fields(l)
		if len(f) != 12 {
			break
		}
		dirty, mode := f[10], f[11]
		unsolved := f[9] == "DOWN" || f[1] == "0"
		if unsolved {
			down++
		}
		if unsolved != (dirty == "-" && mode == "-") {
			t.Errorf("epoch row %q: dirty %q, mode %q", l, dirty, mode)
		}
		if !unsolved && mode != "repair" && !strings.HasPrefix(mode, "full:") {
			t.Errorf("solved epoch row %q has mode %q", l, mode)
		}
	}
	if down == 0 {
		t.Fatalf("no coordinator-down epoch drawn:\n%s", sb.String())
	}
}

func TestReplayRejectsInvalid(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-epochs", "0"}, &sb); err == nil {
		t.Error("zero epochs accepted")
	}
	if err := run([]string{"-active", "2"}, &sb); err == nil {
		t.Error("invalid active probability accepted")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestSharedFlagUsage checks that -h prints the pinned help blocks of the
// five flags replay shares with tsajs-coordinator (internal/cli):
// -chains, -portfolio, -members, -delta and -delta-threshold-km.
func TestSharedFlagUsage(t *testing.T) {
	want, err := os.ReadFile("../../internal/cli/testdata/coordinator_usage.txt")
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	err = run([]string{"-h"}, io.Discard)
	os.Stderr = saved
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	help, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(` \(default [^)]*\)`).ReplaceAllString(string(help), "")
	shared := map[string]bool{"chains": true, "portfolio": true, "members": true, "delta": true, "delta-threshold-km": true}
	var blocks []string
	for _, b := range regexp.MustCompile(`(?m)^  -`).Split(string(want), -1)[1:] {
		if shared[strings.Fields(b)[0]] {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) != len(shared) {
		t.Fatalf("%d pinned shared flags, want %d", len(blocks), len(shared))
	}
	for _, b := range blocks {
		if !strings.Contains(got, "  -"+b) {
			t.Errorf("help lacks the pinned block:\n  -%s", b)
		}
	}
}
