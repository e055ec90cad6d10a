package chaos

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/tsajs/tsajs/internal/cran"
)

// TestHarnessSmoke runs the full calibrate → overload → verify cycle with
// short windows. This is the `make chaos-smoke` entry point: the coordinator
// is driven at 2× its measured sustainable rate over real TCP with a slow
// solver injected for the first half of the window, and every resilience
// invariant must hold.
func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness drives wall-clock load windows")
	}
	rep, err := Run(Config{
		Calibrate:  400 * time.Millisecond,
		Drive:      1600 * time.Millisecond,
		Deadline:   150 * time.Millisecond,
		FaultDelay: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		blob, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("invariant violations: %v\nreport:\n%s", rep.Violations, blob)
	}
	if rep.Issued == 0 || rep.CalibratedRPS <= 0 {
		t.Fatalf("degenerate run: issued=%d calibrated=%.2f", rep.Issued, rep.CalibratedRPS)
	}
	if rep.OfferedRPS != 2*rep.CalibratedRPS {
		t.Fatalf("offered %.2f rps, want 2 × calibrated %.2f rps", rep.OfferedRPS, rep.CalibratedRPS)
	}
	t.Logf("calibrated %.1f rps, offered %.1f rps: %d issued, %d full / %d truncated / %d cheap / %d expired / %d shed; goodput %.2f (fault %.2f → recovery %.2f)",
		rep.CalibratedRPS, rep.OfferedRPS, rep.Issued,
		rep.Full, rep.Truncated, rep.Cheap, rep.Expired, rep.Shed,
		rep.GoodputFraction, rep.FaultGoodput, rep.RecoveryGoodput)
}

// TestHarnessDefaults pins the zero-value fill-ins the harness documents.
func TestHarnessDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	// Faults cover the first half of the 2s drive. Its phase buckets end
	// a tenth inside the edge (0.9s) and recovery starts 2/5 of the rest
	// past it (1.4s), so an answer just inside each bucket counts there.
	rep := verdict(cfg, 1, 2, []outcome{{890 * time.Millisecond, classFull}, {1400 * time.Millisecond, classFull}}, cran.Stats{})
	if rep.FaultGoodput != 1 || rep.RecoveryGoodput != 1 {
		t.Errorf("fault/recovery goodput = %g/%g, want 1/1", rep.FaultGoodput, rep.RecoveryGoodput)
	}
	if cfg.Deadline <= 0 || cfg.Drive <= 0 || cfg.Calibrate <= 0 {
		t.Errorf("defaults left a zero window: deadline=%s drive=%s calibrate=%s",
			cfg.Deadline, cfg.Drive, cfg.Calibrate)
	}
}
