package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted xs by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 quantile of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentiles is the ladder the tail rule picks from.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten of n samples beyond it, so a reported tail rests on at least
// ten observations; 0 means n is too small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// supports reports whether n samples leave at least ten beyond percentile p.
func supports(n int, p float64) bool { return float64(n)*(1-p/100) >= 10-1e-9 }

// interval is a half-open span [start, end) in nanoseconds on the run clock.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Taps on different goroutines can order two instants of one frame either
// way round by a few microseconds; a span that ends before it starts has
// no self time.
func selfTime(span interval, children []interval) int64 {
	if span.end <= span.start {
		return 0
	}
	return span.end - span.start - covered(span.start, span.end, children)
}
