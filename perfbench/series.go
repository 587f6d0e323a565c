package main

import (
	"sort"
	"sync"
	"time"
)

// slices is how many consecutive parts of a timed phase each end-to-end
// timing is computed over; the reported figure is the median over the
// parts. On a shared 2-vCPU host the same work runs up to 2× slower in
// phases lasting seconds: a phase that covers a minority of a run moves a
// whole-run mean or p90 a lot, and the median over slices little.
const slices = 15

// minSliceSamples is the fewest samples a latency slice may hold, so its
// p90 has at least two samples at or above it; a series with fewer than
// slices×minSliceSamples samples is cut into fewer slices.
const minSliceSamples = 20

// sample is one timed operation.
type sample struct {
	end   time.Time
	dur   time.Duration
	units float64 // work the operation completed (samples, tokens, ids, requests)
}

// series records the operations of one kind. It is safe for concurrent use.
type series struct {
	mu sync.Mutex
	s  []sample
}

func (s *series) add(end time.Time, dur time.Duration, units float64) {
	s.mu.Lock()
	s.s = append(s.s, sample{end: end, dur: dur, units: units})
	s.mu.Unlock()
}

func (s *series) reset() {
	s.mu.Lock()
	s.s = s.s[:0]
	s.mu.Unlock()
}

// drop releases the recorded samples, so the benchmark's own bookkeeping
// is not counted in heap_mb.
func (s *series) drop() {
	s.mu.Lock()
	s.s = nil
	s.mu.Unlock()
}

// sorted returns the samples of all series in completion order.
func sorted(ss ...*series) []sample {
	var all []sample
	for _, s := range ss {
		s.mu.Lock()
		all = append(all, s.s...)
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end.Before(all[j].end) })
	return all
}

func (s *series) durations() []time.Duration {
	all := sorted(s)
	d := make([]time.Duration, len(all))
	for i, x := range all {
		d[i] = x.dur
	}
	return d
}

// units is the work the recorded operations completed.
func (s *series) units() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var u float64
	for _, x := range s.s {
		u += x.units
	}
	return u
}

// count is the number of recorded operations.
func (s *series) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.s)
}

// parts returns the bounds of k consecutive, near-equal parts of n items,
// which together cover all n.
func parts(n, k int) [][2]int {
	b := make([][2]int, k)
	for i := range b {
		b[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return b
}

// sliceQuantile cuts the operations, in completion order, into up to
// `slices` near-equal runs of at least minSliceSamples (one run when there
// are fewer) and returns the median of the runs' q-quantiles.
func (s *series) sliceQuantile(q float64) time.Duration {
	d := s.durations()
	if len(d) == 0 {
		return 0
	}
	k := max(1, min(slices, len(d)/minSliceSamples))
	qs := make([]time.Duration, 0, k)
	for _, b := range parts(len(d), k) {
		qs = append(qs, quantile(d[b[0]:b[1]], q))
	}
	return quantile(qs, 0.5)
}

// sliceRate is the work completed per second: the operations of all
// series, in completion order, are cut into up to `slices` near-equal
// runs, each run's units are divided by the time from the previous run's
// last completion (the phase start for the first) to its own, and the
// median of those rates is returned.
func sliceRate(start time.Time, ss ...*series) float64 {
	all := sorted(ss...)
	if len(all) == 0 {
		return 0
	}
	var rates []float64
	prev := start
	for _, b := range parts(len(all), min(slices, len(all))) {
		var units float64
		for _, x := range all[b[0]:b[1]] {
			units += x.units
		}
		end := all[b[1]-1].end
		if span := end.Sub(prev); span > 0 {
			rates = append(rates, units/span.Seconds())
		}
		prev = end
	}
	if len(rates) == 0 {
		return 0
	}
	sort.Float64s(rates)
	return rates[len(rates)/2]
}
