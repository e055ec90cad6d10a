package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTailSamples is how many answered requests must lie beyond the
// highest reported percentile for it to be reported at all.
const minTailSamples = 10

// nearestRank returns the 1-based nearest-rank index of the pct-th
// percentile in a sample of n: the smallest rank covering pct% of it.
func nearestRank(n, pct int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// beyond returns how many of n sorted samples lie strictly after the
// pct-th percentile's nearest rank.
func beyond(n, pct int) int { return n - nearestRank(n, pct) }

// quantile returns the pct-th nearest-rank percentile of sorted.
func quantile(sorted []time.Duration, pct int) time.Duration {
	return sorted[nearestRank(len(sorted), pct)-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summary is the client's view of one measured window.
type summary struct {
	sent, answered, shed, expired, failed int
	// good counts answered requests within the workload's latency limit.
	good     int
	degraded int
	// p50 and p99 are the medians, over equal windows of the schedule, of
	// each window's nearest-rank latency percentile over answered requests;
	// utility is the median over the same windows of each window's mean
	// per-user utility. One bad stretch of a run moves none of them.
	p50, p99    time.Duration
	utility     float64
	meanLatency time.Duration
	lagP99      time.Duration
}

// summarize reduces the records of one schedule. Only answered requests
// enter the latency sample; shed, expired and failed requests count as
// goodput misses. windows splits the schedule's span into equal windows by
// scheduled send time; each must hold enough answered requests for its
// p99 to have minTailSamples beyond it.
func summarize(sched []request, recs []record, span, limit time.Duration, windows int) (summary, error) {
	var s summary
	perWindow := make([][]time.Duration, windows)
	utilities := make([]float64, windows)
	lags := make([]time.Duration, 0, len(recs))
	var latSum time.Duration
	for i := range recs {
		rec := &recs[i]
		s.sent++
		lags = append(lags, rec.lag)
		switch rec.outcome {
		case answered:
			s.answered++
			if rec.latency <= limit {
				s.good++
			}
			if rec.degraded {
				s.degraded++
			}
			latSum += rec.latency
			w := int(int64(sched[i].at) * int64(windows) / int64(span))
			w = min(max(w, 0), windows-1)
			perWindow[w] = append(perWindow[w], rec.latency)
			utilities[w] += rec.utility
		case shed:
			s.shed++
		case expired:
			s.expired++
		default:
			s.failed++
		}
	}
	if s.answered > 0 {
		s.meanLatency = latSum / time.Duration(s.answered)
	}
	if len(lags) > 0 {
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		s.lagP99 = quantile(lags, 99)
	}
	p50s := make([]float64, windows)
	p99s := make([]float64, windows)
	for w, lat := range perWindow {
		if b := beyond(len(lat), 99); b < minTailSamples {
			return s, fmt.Errorf("window %d of %d holds %d answered requests, %d beyond p99 (need %d)",
				w+1, windows, len(lat), b, minTailSamples)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50s[w] = float64(quantile(lat, 50))
		p99s[w] = float64(quantile(lat, 99))
		utilities[w] /= float64(len(lat))
	}
	s.p50 = time.Duration(median(p50s))
	s.p99 = time.Duration(median(p99s))
	s.utility = median(utilities)
	return s, nil
}

// goodput is answered-within-limit requests per second of schedule.
func (s summary) goodput(span time.Duration) float64 {
	return float64(s.good) / span.Seconds()
}

// slotKey identifies one uplink slot of one epoch.
type slotKey struct {
	epoch           uint64
	server, channel int32
}

// checkAnswers verifies every record: exactly one outcome each, the
// response echoing the request's user, no (server, channel) slot granted
// twice within an epoch, and per-server granted CPU within capacity.
func checkAnswers(recs []record, serverHz float64) []string {
	var bad []string
	note := func(format string, args ...any) {
		if len(bad) < 20 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	slots := make(map[slotKey]int)
	cpu := make(map[[2]uint64]float64)
	for i := range recs {
		rec := &recs[i]
		if rec.outcomes != 1 || rec.outcome == pendingOutcome {
			note("request %d recorded %d outcomes", i, rec.outcomes)
			continue
		}
		if rec.outcome != answered {
			continue
		}
		if !rec.echoOK {
			note("request %d: response user ID does not echo the request", i)
		}
		if math.IsNaN(rec.utility) || math.IsInf(rec.utility, 0) {
			note("request %d: non-finite utility %g", i, rec.utility)
		}
		if !rec.offload {
			continue
		}
		k := slotKey{rec.epoch, rec.server, rec.channel}
		if j, dup := slots[k]; dup {
			note("epoch %d: requests %d and %d both hold server %d channel %d", rec.epoch, j, i, rec.server, rec.channel)
		}
		slots[k] = i
		cpu[[2]uint64{rec.epoch, uint64(rec.server)}] += rec.fusHz
	}
	for k, hz := range cpu {
		if hz > serverHz*(1+1e-9) {
			note("epoch %d: server %d granted %.6g Hz of %.6g Hz capacity", k[0], k[1], hz, serverHz)
		}
	}
	return bad
}
