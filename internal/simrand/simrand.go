// Package simrand provides the deterministic randomness substrate for the
// TSAJS simulator.
//
// Every stochastic component (user placement, shadowing, workload jitter,
// the annealing schedule) draws from a Source created here, so that a
// scenario is fully reproducible from a single seed. Independent streams
// for independent trials are derived with Derive, which mixes the parent
// seed with a label using SplitMix64 so that trial i of experiment A never
// shares a stream with trial i of experiment B.
//
// Per-row channel gains use keyed streams instead: Key computes the seed
// Derive would give a labelled stream, and Stream draws from that key with a
// bare SplitMix64 counter. A Stream source is cheap to start and Rekey
// restarts it in place, so one source can draw every (epoch, user) row.
package simrand

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source with the distribution helpers the
// simulator needs. It wraps math/rand with an explicit seed so it can be
// derived and replayed.
type Source struct {
	rng  *rand.Rand
	seed uint64
	// ctr backs rng for Stream sources; nil for New sources.
	ctr *counter
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{
		rng:  rand.New(rand.NewSource(int64(splitMix64(seed)))),
		seed: seed,
	}
}

// Stream returns a source keyed by key (see Key) that draws from a
// SplitMix64 counter: its state starts at splitMix64(key) and each draw adds
// the golden gamma and mixes. Unlike New it builds no seeding table, so
// starting a stream costs nothing beyond the first draw. Its draws differ
// from New(key)'s.
func Stream(key uint64) *Source {
	s := &Source{seed: key, ctr: &counter{state: splitMix64(key)}}
	s.rng = rand.New(s.ctr)
	return s
}

// Rekey restarts a Stream source in place as Stream(key) would start it,
// without allocating. It panics on a source made by New or Derive.
func (s *Source) Rekey(key uint64) {
	if s.ctr == nil {
		panic("simrand: Rekey on a source not made by Stream")
	}
	s.seed = key
	s.ctr.state = splitMix64(key)
}

// Key returns the seed of the stream seed derives through labels in turn,
// without building any source: Key(s.Seed(), a, b) equals
// s.Derive(a).Derive(b).Seed().
func Key(seed uint64, labels ...uint64) uint64 {
	for _, l := range labels {
		seed = splitMix64(seed ^ splitMix64(l))
	}
	return seed
}

// Seed returns the seed this source was created from.
func (s *Source) Seed() uint64 { return s.seed }

// Derive returns a new independent Source whose seed deterministically
// combines this source's seed with the given label. Use distinct labels for
// distinct purposes (e.g. one per trial, one per subsystem).
func (s *Source) Derive(label uint64) *Source {
	return New(Key(s.seed, label))
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform sample in [0, n). n must be > 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.rng.NormFloat64()
}

// LogNormalDB returns a multiplicative linear-domain factor whose decibel
// value is Gaussian with zero mean and the given standard deviation in dB.
// This is the standard model for lognormal shadowing: a stdDB of 0 returns
// exactly 1.
func (s *Source) LogNormalDB(stdDB float64) float64 {
	if stdDB == 0 {
		return 1
	}
	return math.Pow(10, s.Normal(0, stdDB)/10)
}

// UniformDisc returns a point sampled uniformly from a disc of the given
// radius centred at the origin, as (x, y).
func (s *Source) UniformDisc(radius float64) (x, y float64) {
	r := radius * math.Sqrt(s.Float64())
	theta := 2 * math.Pi * s.Float64()
	return r * math.Cos(theta), r * math.Sin(theta)
}

// splitMix64 is the SplitMix64 mixing function; it turns correlated seeds
// into statistically independent ones.
func splitMix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// golden is SplitMix64's increment, the golden-ratio gamma.
const golden = 0x9e3779b97f4a7c15

// counter is the SplitMix64 generator behind Stream sources, as a
// math/rand Source64.
type counter struct{ state uint64 }

func (c *counter) Uint64() uint64 {
	x := splitMix64(c.state)
	c.state += golden
	return x
}

func (c *counter) Int63() int64 { return int64(c.Uint64() >> 1) }

func (c *counter) Seed(seed int64) { c.state = splitMix64(uint64(seed)) }
