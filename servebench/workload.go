package main

import (
	"fmt"
	"math"
	"time"

	"github.com/tsajs/tsajs/internal/cran"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/task"
)

// workload is one named traffic mix. Every field is a fixed constant: the
// offered rate in particular is never calibrated at run time, so a faster
// coordinator receives exactly the same load as a slower one.
type workload struct {
	name string
	// rate is the offered load in requests per second (Poisson arrivals);
	// sustainable is the measured full-quality capacity it was sized from.
	rate        float64
	sustainable float64
	// limit is the latency limit, measured from the scheduled send, within
	// which an answered request counts toward goodput.
	limit time.Duration

	// Coordinator configuration.
	budget     int           // TTSA evaluations per full-quality epoch
	window     time.Duration // batch window
	queueDepth int           // solve queue bound
	workers    int           // solver workers (0: GOMAXPROCS)
	brownout   bool
	delta      bool

	// deadline is the per-request deadline carried on the wire (0: none).
	deadline time.Duration
	// population > 0 selects a stable population of that many users, each
	// sending once per round in a seeded order and taking small steps
	// between rounds; 0 means every request comes from a new user at a new
	// position.
	population int
}

// Workload constants shared by the mixes.
const (
	// epochSlots is S·N of the default network (9 servers × 3 subchannels):
	// the coordinator's default MaxBatch, so full epochs hold 27 users.
	epochSlots = 27
	// areaKm is the radius of the disc users are placed in; it covers the
	// default 9-site hexagonal layout with 1 km inter-site distance.
	areaKm = 1.6
	// Stable-population movement: every round each user creeps stepKm —
	// below the coordinator's moveThresholdKm — and with probability
	// jumpProb jumps to a fresh spot instead, which makes it dirty for the
	// delta path.
	stepKm          = 0.004
	jumpProb        = 0.08
	moveThresholdKm = 0.05
)

// The offered rates sit well below capacity where a workload is not meant
// to overload: on a shared two-core host, CPU steal stretches solves by up
// to half, and near capacity that queueing swing doubles the p99 from run
// to run. Batch windows are long enough that epochs fill all 27 slots
// before the window fires.
//
// The overload's 20000-evaluation cap leaves the full-quality anneal on its
// own cooling schedule (it stops near 16000 evaluations, 10–13 ms per
// 27-user epoch on one worker, so about 2000 req/s), and makes the
// brownout's truncated tier an eighth of the cap.
var workloads = []workload{
	{
		name:        "serve-fresh",
		rate:        2000,
		sustainable: 10000,
		limit:       50 * time.Millisecond,
		budget:      4000,
		window:      50 * time.Millisecond,
		queueDepth:  64,
	},
	{
		name:        "serve-delta",
		rate:        1080,
		sustainable: 6000,
		limit:       100 * time.Millisecond,
		budget:      4000,
		window:      60 * time.Millisecond,
		queueDepth:  64,
		delta:       true,
		population:  epochSlots,
	},
	{
		name:        "serve-overload",
		rate:        4000,
		sustainable: 2000,
		limit:       150 * time.Millisecond,
		budget:      20000,
		window:      20 * time.Millisecond,
		queueDepth:  8,
		workers:     1,
		brownout:    true,
		deadline:    100 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// request is one scheduled offload: when it is due relative to the start
// of its schedule, and what it carries.
type request struct {
	at  time.Duration
	req cran.OffloadRequest
}

// Stream labels separating the seeded draws of one schedule.
const (
	arrivalStream  = 0xa77
	positionStream = 0x905
	taskStream     = 0x7a5
	orderStream    = 0x0d3
	warmupStream   = 0x3a2
)

// makeSchedule draws the open-loop schedule of w over span from seed: the
// Poisson arrival times and the users, positions and tasks they carry. It
// is a pure function of its arguments; prefix separates the user IDs of
// distinct schedules drawn for one coordinator (warm-up and measurement)
// on fresh-user workloads.
func makeSchedule(w workload, seed uint64, span time.Duration, prefix string) []request {
	root := simrand.New(seed)
	arrivals := root.Derive(arrivalStream)
	var out []request
	for t := 0.0; ; {
		// Inverse-CDF exponential gap; 1-U is in (0,1], so the log is finite.
		t += -math.Log(1-arrivals.Float64()) / w.rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			break
		}
		out = append(out, request{at: at})
	}
	fillRequests(w, root, out, prefix)
	return out
}

// fillRequests assigns users, positions and tasks to the scheduled slots.
func fillRequests(w workload, root *simrand.Source, reqs []request, prefix string) {
	tasks := root.Derive(taskStream)
	positions := root.Derive(positionStream)
	var pop *population
	if w.population > 0 {
		pop = newPopulation(w.population, positions, root.Derive(orderStream))
	}
	for i := range reqs {
		r := &reqs[i]
		r.req.Version = cran.ProtocolVersion
		r.req.Task = drawTask(tasks)
		if w.deadline > 0 {
			r.req.DeadlineMs = float64(w.deadline) / float64(time.Millisecond)
		}
		if pop != nil {
			r.req.UserID, r.req.Pos = pop.next()
			continue
		}
		r.req.UserID = fmt.Sprintf("%s%d", prefix, i)
		r.req.Pos = discPoint(positions)
	}
}

// drawTask draws a task of 300–500 KB input and 600–1400 Mcycles of work
// around the paper's 420 KB / 1000 Mcycle default.
func drawTask(rng *simrand.Source) task.Task {
	return task.Task{
		DataBits:   (300 + 200*rng.Float64()) * 8 * 1024,
		WorkCycles: (600 + 800*rng.Float64()) * 1e6,
	}
}

func discPoint(rng *simrand.Source) geom.Point {
	x, y := rng.UniformDisc(areaKm)
	return geom.Point{X: x, Y: y}
}

// population is a stable set of users re-sending once per round in a
// seeded order. Each user lives around a home site, three per cell, at a
// seeded distance and bearing; between rounds it creeps along its circle,
// and now and then jumps to a fresh spot around the same site. Users stay
// in their cell, so the population's geometry — and the utility it can
// reach — is statistically the same for every seed.
type population struct {
	sites  []geom.Point
	radius []float64
	angle  []float64
	move   *simrand.Source
	order  []int
	k      int // requests issued in the current round
}

// Home-cell placement: a user sits between these distances from its site.
const (
	minHomeKm = 0.15
	maxHomeKm = 0.45
)

func newPopulation(n int, positions, move *simrand.Source) *population {
	p := &population{
		sites:  geom.HexLayout(scenario.DefaultParams().NumServers, scenario.DefaultParams().InterSiteKm),
		radius: make([]float64, n),
		angle:  make([]float64, n),
		move:   move,
	}
	for i := range p.radius {
		p.place(i, positions)
	}
	return p
}

// place draws user i a fresh spot around its home site.
func (p *population) place(i int, rng *simrand.Source) {
	p.radius[i] = minHomeKm + (maxHomeKm-minHomeKm)*rng.Float64()
	p.angle[i] = 2 * math.Pi * rng.Float64()
}

func (p *population) pos(i int) geom.Point {
	site := p.sites[i%len(p.sites)]
	return geom.Point{
		X: site.X + p.radius[i]*math.Cos(p.angle[i]),
		Y: site.Y + p.radius[i]*math.Sin(p.angle[i]),
	}
}

// next returns the user ID and position of the population's next request,
// starting a new round — a fresh order and one movement step for everyone
// — whenever the previous round is complete.
func (p *population) next() (string, geom.Point) {
	if p.k == len(p.order) {
		if p.order != nil {
			p.step()
		}
		p.order = p.move.Perm(len(p.radius))
		p.k = 0
	}
	u := p.order[p.k]
	p.k++
	return fmt.Sprintf("u%d", u), p.pos(u)
}

// step moves every user: a jump with probability jumpProb, a creep of
// stepKm along its circle otherwise.
func (p *population) step() {
	for i := range p.radius {
		if p.move.Float64() < jumpProb {
			p.place(i, p.move)
			continue
		}
		p.creep(i)
	}
}

func (p *population) creep(i int) { p.angle[i] += stepKm / p.radius[i] }

// shift moves exactly k randomly chosen users to fresh spots and lets the
// others creep.
func (p *population) shift(k int) {
	for rank, i := range p.move.Perm(len(p.radius)) {
		if rank < k {
			p.place(i, p.move)
		} else {
			p.creep(i)
		}
	}
}

// warmupSchedule returns the requests of the set-up warm-up: waves of one
// full epoch each, drawn from a stream disjoint from the measured
// schedule's. Stable-population workloads warm up with their own users, so
// the measured window starts with a primed coordinator.
func warmupSchedule(w workload, seed uint64, waves int) []request {
	reqs := make([]request, waves*epochSlots)
	fillRequests(w, simrand.New(seed).Derive(warmupStream), reqs, "w")
	for i := range reqs {
		// Warm-up requests never expire: set-up must not depend on shedding.
		reqs[i].req.DeadlineMs = 0
	}
	return reqs
}
