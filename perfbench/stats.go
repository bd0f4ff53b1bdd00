package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything: fewer, and the "p99" is one or two
// unlucky operations.
const minTailSamples = 10

// tailLadder lists the percentiles a tail metric may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least minTailSamples of n samples beyond it (50 when n is too small
// for any tail).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minTailSamples {
			return p
		}
	}
	return 50
}

// beyond counts the samples of n that lie strictly above the p-th
// percentile under the nearest-rank definition percentile uses.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// rankIndex is the nearest-rank index of the p-th percentile in a sorted
// sample of size n.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty sample). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// median is the 50th percentile with the two middle values averaged for
// even sample sizes.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// windows splits xs into at most n consecutive windows whose lengths are
// multiples of unit; the last window also takes the remainder.
func windows(xs []float64, n, unit int) [][]float64 {
	per := (len(xs)/unit + n - 1) / n * unit
	if per == 0 {
		per = unit
	}
	var out [][]float64
	for lo := 0; lo < len(xs); lo += per {
		if len(out) == n-1 || lo+per > len(xs) || len(xs)-(lo+per) < per {
			out = append(out, xs[lo:])
			break
		}
		out = append(out, xs[lo:lo+per])
	}
	return out
}

// tailSpec fixes how a workload reports op_tail_ms: the median over
// windows consecutive windows of each window's pct-th percentile. Windows
// keep a burst of interference from the host confined to the windows it
// hit instead of owning the whole run's top samples.
type tailSpec struct {
	pct     float64
	windows int
}

// of returns the tail of xs (latencies in operation order).
func (t tailSpec) of(xs []float64) float64 {
	var ps []float64
	for _, w := range windows(xs, t.windows, 1) {
		ps = append(ps, percentile(w, t.pct))
	}
	return median(ps)
}

// minBeyond is the fewest samples any window leaves beyond the percentile.
func (t tailSpec) minBeyond(xs []float64) int {
	m := -1
	for _, w := range windows(xs, t.windows, 1) {
		if b := beyond(len(w), t.pct); m < 0 || b < m {
			m = b
		}
	}
	return m
}

// windowedRate is the median over at most n windows (whole multiples of
// unit operations) of operations per second of busy time, for one caller
// running operations back to back; latMS are the operation times in ms.
func windowedRate(latMS []float64, n, unit int) float64 {
	var rates []float64
	for _, w := range windows(latMS, n, unit) {
		busy := 0.0
		for _, x := range w {
			busy += x
		}
		if busy > 0 {
			rates = append(rates, float64(len(w))/(busy/1e3))
		}
	}
	return median(rates)
}
