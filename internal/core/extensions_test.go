package core_test

import (
	"testing"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/simrand"
)

func TestScheduleTraceMatchesSchedule(t *testing.T) {
	sc := tinyScenario(t, 29)
	ts := core.NewDefault()
	plain, err := ts.Schedule(sc, simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	traced, trace, err := ts.ScheduleTrace(sc, simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Utility != traced.Utility || !plain.Assignment.Equal(traced.Assignment) {
		t.Error("traced run diverged from plain run on the same seed")
	}
	if plain.Evaluations != traced.Evaluations {
		t.Errorf("evaluation counts differ: %d vs %d", plain.Evaluations, traced.Evaluations)
	}
	if len(trace) == 0 {
		t.Fatal("no trace points recorded")
	}
	// Trace invariants: stages sequential, temperature strictly
	// decreasing, best monotone non-decreasing, best >= current is NOT
	// required (current can exceed... no: best tracks max), evaluations
	// non-decreasing.
	for i, pt := range trace {
		if pt.Stage != i {
			t.Fatalf("trace stage %d at index %d", pt.Stage, i)
		}
		if i == 0 {
			continue
		}
		prev := trace[i-1]
		if pt.Temp >= prev.Temp {
			t.Fatalf("temperature did not decrease: %g -> %g", prev.Temp, pt.Temp)
		}
		if pt.Best < prev.Best {
			t.Fatalf("best utility decreased: %g -> %g", prev.Best, pt.Best)
		}
		if pt.Evaluations < prev.Evaluations {
			t.Fatalf("evaluations decreased: %d -> %d", prev.Evaluations, pt.Evaluations)
		}
	}
	final := trace[len(trace)-1]
	if final.Best != traced.Utility {
		t.Errorf("final trace best %g != result utility %g", final.Best, traced.Utility)
	}
}

func TestTraceRecordsAcceleratedCooling(t *testing.T) {
	// With a tiny threshold every stage at high temperature should
	// accelerate: the trigger is easy to fire when most moves are
	// accepted as deteriorations.
	cfg := core.DefaultConfig()
	cfg.ThresholdFactor = 0.01
	ts, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScenario(t, 31)
	_, trace, err := ts.ScheduleTrace(sc, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	accelerated := 0
	for _, pt := range trace {
		if pt.Accelerated {
			accelerated++
		}
	}
	if accelerated == 0 {
		t.Error("threshold 0.01·L never fired the accelerated cooling")
	}
	// Plain SA must never accelerate.
	cfg = core.DefaultConfig()
	cfg.DisableThreshold = true
	ts, err = core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err = ts.ScheduleTrace(sc, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range trace {
		if pt.Accelerated {
			t.Fatal("plain SA recorded an accelerated stage")
		}
	}
}
