package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must leave beyond
// it: a p99 needs at least 1,000 samples, a p999 10,000.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending).
// Failed requests are represented as +Inf and sort last, so they count as
// missing every latency limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps ⌈0.99·1000⌉ at 990 despite floating-point error.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailCovered reports whether n samples leave at least minTail samples
// beyond the q-quantile.
func tailCovered(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// latencySummary is a latency distribution in milliseconds.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
	// Infinite counts the failed or undelivered requests, which enter the
	// percentiles as +Inf.
	Infinite int `json:"infinite"`
	// Windows is the number of windows a windowed summary took the median
	// over (0 for a plain summary).
	Windows int `json:"windows,omitempty"`
}

// summarize sorts ms in place and reports its median and p99. It fails when
// the sample count is too small for the p99 to have minTail samples beyond
// it.
func summarize(ms []float64) (latencySummary, error) {
	sort.Float64s(ms)
	s := latencySummary{Samples: len(ms)}
	for i := len(ms) - 1; i >= 0 && math.IsInf(ms[i], 1); i-- {
		s.Infinite++
	}
	if !tailCovered(len(ms), 0.99) {
		return s, fmt.Errorf("%d samples leave fewer than %d beyond p99", len(ms), minTail)
	}
	s.P50 = quantile(ms, 0.50)
	s.P99 = quantile(ms, 0.99)
	return s, nil
}

// summarizeWindows reports the median across windows of each window's p50
// and p99, where every window must leave minTail samples beyond its p99.
// Interference from outside the program that spoils fewer than half of the
// windows does not move the result. Samples and Infinite count every
// window.
func summarizeWindows(windows [][]float64) (latencySummary, error) {
	var s latencySummary
	p50s := make([]float64, 0, len(windows))
	p99s := make([]float64, 0, len(windows))
	for i, ms := range windows {
		ws, err := summarize(ms)
		s.Samples += ws.Samples
		s.Infinite += ws.Infinite
		if err != nil {
			return s, fmt.Errorf("window %d of %d: %w", i+1, len(windows), err)
		}
		p50s = append(p50s, ws.P50)
		p99s = append(p99s, ws.P99)
	}
	if len(windows) == 0 {
		return s, fmt.Errorf("no latency windows")
	}
	s.Windows = len(windows)
	s.P50 = median(p50s)
	s.P99 = median(p99s)
	return s, nil
}

// backlogGrows reports whether the outstanding-request count, sampled at
// even intervals across a probe, kept growing: the mean over the last
// quarter of the samples exceeds the mean over the second quarter by more
// than one epoch's worth of arrivals. A system at steady state oscillates
// within an epoch's arrivals; an overloaded one accumulates its excess rate
// linearly.
func backlogGrows(samples []int, rate float64, epoch time.Duration) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	mean := func(s []int) float64 {
		t := 0
		for _, v := range s {
			t += v
		}
		return float64(t) / float64(len(s))
	}
	second := mean(samples[q : 2*q])
	last := mean(samples[len(samples)-q:])
	return last-second > rate*epoch.Seconds()
}

// probeVerdict is the outcome of one fixed-rate probe of the max_rps
// search.
type probeVerdict struct {
	// Offered is the schedule's realized rate: operations / schedule
	// length.
	Offered float64 `json:"offered_rps"`
	// Target is the rate the schedule was generated for.
	Target       float64 `json:"target_rps"`
	P50          float64 `json:"p50_ms"`
	P99          float64 `json:"p99_ms"`
	CompleteFrac float64 `json:"complete_frac"`
	Backlog      bool    `json:"backlog_grows"`
	Pass         bool    `json:"pass"`
	SetupS       float64 `json:"setup_s"`
}

// minCompleteFrac is the share of a probe's operations that must complete
// before the schedule ends plus one latency limit.
const minCompleteFrac = 0.95

// judge sets v.Pass: p99 within limit, enough operations completed within
// the run, and no growing backlog.
func (v *probeVerdict) judge(limit time.Duration) {
	v.Pass = v.P99 <= float64(limit)/float64(time.Millisecond) &&
		v.CompleteFrac >= minCompleteFrac && !v.Backlog
}

// verdict judges a drained probe phase run at target rate.
func verdict(p *phase, target float64, limit, epoch time.Duration) (probeVerdict, error) {
	v := probeVerdict{Target: target, Offered: p.offered()}
	sum, err := summarizeWindows(p.windowLatenciesMS())
	if err != nil {
		return v, fmt.Errorf("probe at %.0f rps: %w", target, err)
	}
	v.P50, v.P99 = sum.P50, sum.P99
	v.CompleteFrac = p.completeFrac(limit)
	v.Backlog = backlogGrows(p.backlog, v.Offered, epoch)
	v.judge(limit)
	return v, nil
}

// searchMaxRate probes for the highest rate that passes. It starts at
// start and walks by factor step until the pass/fail boundary is bracketed,
// then bisects the bracket geometrically until probes are used up. If none
// has passed by then (on a host far slower than the one start was chosen
// on, or one starved by its neighbours), it steps down by step² until a
// probe passes, at most probes more times. Each probe must run against a
// fresh store. It returns every verdict in order.
func searchMaxRate(probe func(rate float64) (probeVerdict, error), start, step float64, probes int) ([]probeVerdict, error) {
	var (
		trail  []probeVerdict
		lo, hi float64 // highest passing / lowest failing target rate
	)
	rate := start
	for len(trail) < probes || (lo == 0 && len(trail) < 2*probes) {
		v, err := probe(rate)
		if err != nil {
			return trail, err
		}
		trail = append(trail, v)
		if v.Pass {
			lo = rate
		} else {
			hi = rate
		}
		switch {
		case hi == 0:
			rate = lo * step
		case lo == 0 && len(trail) >= probes:
			rate = hi / (step * step)
		case lo == 0:
			rate = hi / step
		default:
			rate = math.Sqrt(lo * hi)
		}
	}
	return trail, nil
}

// maxRate reads max_rps off a search: the offered rate of the highest
// passing probe, refined inside the final bracket. When the lowest failing
// probe above it failed on p99, the rate where p99 crosses limitMS is
// interpolated log-linearly between the two, so the estimate does not
// snap to the bisection grid. It is 0 when no probe passed.
func maxRate(trail []probeVerdict, limitMS float64) float64 {
	var lo, hi *probeVerdict
	for i := range trail {
		v := &trail[i]
		if v.Pass && (lo == nil || v.Target > lo.Target) {
			lo = v
		}
	}
	if lo == nil {
		return 0
	}
	for i := range trail {
		v := &trail[i]
		if !v.Pass && v.Target > lo.Target && (hi == nil || v.Target < hi.Target) {
			hi = v
		}
	}
	if hi == nil || hi.P99 <= limitMS || lo.P99 <= 0 || hi.Offered <= lo.Offered {
		return lo.Offered
	}
	f := math.Log(limitMS/lo.P99) / math.Log(hi.P99/lo.P99)
	return lo.Offered * math.Pow(hi.Offered/lo.Offered, f)
}

// sendLagValid reports whether the generator kept to its schedule: a p99
// send lag beyond a tenth of the epoch means the run measured the
// generator, not the store.
func sendLagValid(lagP99ms float64, epoch time.Duration) bool {
	return lagP99ms <= float64(epoch)/float64(time.Millisecond)/10
}

// median returns the median of xs (NaN when empty) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
