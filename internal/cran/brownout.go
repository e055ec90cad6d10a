package cran

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// BrownoutConfig parametrizes the coordinator's graceful-degradation
// policy. When enabled, the batch collector watches the solve queue's depth
// and stamps a quality tier on each epoch at enqueue time: under pressure,
// epochs are solved by progressively cheaper schedulers (truncated anneal,
// then the anneal-free Cheap solver) instead of being shed, trading
// solution quality for on-time answers.
//
// The controller is deterministic: the tier stamped on epoch k is a pure
// function of the queue-depth sequence observed at enqueues 1..k, with no
// randomness or wall-clock input, so the same arrival trace always yields
// the same tier trace.
type BrownoutConfig struct {
	// Enabled turns the controller on. The zero value keeps the historical
	// behaviour: every epoch is solved at full quality and overload is
	// handled solely by shedding.
	Enabled bool
	// HighFraction is the queue fill fraction (depth / QueueDepth) at or
	// above which epochs degrade to the truncated-anneal tier. Zero
	// defaults to 0.5.
	HighFraction float64
	// CheapFraction is the fill fraction at or above which epochs use the
	// cheap anneal-free tier. Zero defaults to 0.875.
	CheapFraction float64
	// LowFraction is the fill fraction at or below which the controller
	// starts counting calm epochs toward recovery. Zero defaults to 0.25.
	LowFraction float64
	// DwellEpochs is how many consecutive calm epochs (depth at or below
	// LowFraction) must pass before the controller steps back up one tier —
	// the hysteresis that stops tier flapping around a threshold. Zero
	// defaults to 3.
	DwellEpochs int
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.HighFraction == 0 {
		c.HighFraction = 0.5
	}
	if c.CheapFraction == 0 {
		c.CheapFraction = 0.875
	}
	if c.LowFraction == 0 {
		c.LowFraction = 0.25
	}
	if c.DwellEpochs == 0 {
		c.DwellEpochs = 3
	}
	return c
}

// Validate checks the configuration domain.
func (c BrownoutConfig) Validate() error {
	cc := c.withDefaults()
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"high fraction", cc.HighFraction},
		{"cheap fraction", cc.CheapFraction},
		{"low fraction", cc.LowFraction},
	} {
		if f.v < 0 || f.v > 1 || f.v != f.v {
			return fmt.Errorf("cran: brownout %s must be in [0,1], got %g", f.name, f.v)
		}
	}
	if cc.LowFraction >= cc.HighFraction {
		return fmt.Errorf("cran: brownout low fraction %g must be below high fraction %g (hysteresis band)",
			cc.LowFraction, cc.HighFraction)
	}
	if cc.HighFraction > cc.CheapFraction {
		return fmt.Errorf("cran: brownout high fraction %g must not exceed cheap fraction %g",
			cc.HighFraction, cc.CheapFraction)
	}
	if c.DwellEpochs < 0 {
		return fmt.Errorf("cran: brownout dwell must be non-negative, got %d", c.DwellEpochs)
	}
	return nil
}

// epochTier is the internal quality-tier ordinal; higher is cheaper.
type epochTier int

const (
	tierFull epochTier = iota
	tierTruncated
	tierCheap
)

// wire returns the protocol tier string.
func (t epochTier) wire() string {
	switch t {
	case tierTruncated:
		return TierTruncated
	case tierCheap:
		return TierCheap
	default:
		return TierFull
	}
}

// brownoutController is the deterministic degradation state machine. It is
// owned by the batch collector goroutine — observe is called exactly once
// per flushed epoch, in epoch order — so it needs no locking.
//
// Escalation is immediate (an overload spike degrades the very next
// epoch); de-escalation is damped: the queue must sit at or below the low
// watermark for DwellEpochs consecutive epochs before the controller steps
// back up one tier, and any excursion above it resets the count. Depths in
// the band between the watermarks hold the current tier (hysteresis).
type brownoutController struct {
	enabled bool
	highAt  int // depth at/above which the truncated tier engages
	cheapAt int // depth at/above which the cheap tier engages
	lowAt   int // depth at/below which calm epochs accumulate
	dwell   int // calm epochs required before stepping up a tier

	tier epochTier
	calm int
}

func newBrownoutController(cfg BrownoutConfig, queueDepth int) *brownoutController {
	if !cfg.Enabled {
		return &brownoutController{}
	}
	ceilFrac := func(f float64) int {
		at := int(math.Ceil(f * float64(queueDepth)))
		if at < 1 {
			at = 1
		}
		return at
	}
	b := &brownoutController{
		enabled: true,
		highAt:  ceilFrac(cfg.HighFraction),
		cheapAt: ceilFrac(cfg.CheapFraction),
		lowAt:   int(cfg.LowFraction * float64(queueDepth)),
		dwell:   cfg.DwellEpochs,
	}
	if b.cheapAt < b.highAt {
		b.cheapAt = b.highAt
	}
	return b
}

// observe feeds the controller the solve queue depth seen when an epoch is
// flushed and returns the tier to stamp on that epoch.
func (b *brownoutController) observe(depth int) epochTier {
	if !b.enabled {
		return tierFull
	}
	switch {
	case depth >= b.cheapAt:
		b.calm = 0
		b.tier = tierCheap
	case depth >= b.highAt:
		b.calm = 0
		if b.tier < tierTruncated {
			b.tier = tierTruncated
		}
	case depth <= b.lowAt:
		if b.tier == tierFull {
			break
		}
		b.calm++
		if b.calm >= b.dwell {
			b.tier--
			b.calm = 0
		}
	default:
		b.calm = 0 // hysteresis band: hold the tier
	}
	return b.tier
}

// waitEstimator tracks an exponentially weighted moving average of epoch
// solve latency, updated lock-free by whichever solver worker finishes a
// solve and read by every connection goroutine at admission. The estimated
// queue wait for a newly admitted request is the EWMA times the number of
// epochs ahead of it (queued plus the one it will join).
type waitEstimator struct {
	bits atomic.Uint64 // float64 bits of the EWMA, in seconds
}

// ewmaAlpha is the smoothing factor: heavy enough that a burst of slow
// solves moves the estimate within a few epochs, light enough that one
// outlier does not open the admission gate on its own.
const ewmaAlpha = 0.2

func (w *waitEstimator) note(solveSeconds float64) {
	for {
		old := w.bits.Load()
		prev := math.Float64frombits(old)
		next := solveSeconds
		if prev > 0 {
			next = ewmaAlpha*solveSeconds + (1-ewmaAlpha)*prev
		}
		if w.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (w *waitEstimator) perEpochSeconds() float64 {
	return math.Float64frombits(w.bits.Load())
}

// estimate returns the expected queue wait with `ahead` epochs in front.
func (w *waitEstimator) estimate(ahead int) time.Duration {
	return time.Duration(w.perEpochSeconds() * float64(ahead) * float64(time.Second))
}
