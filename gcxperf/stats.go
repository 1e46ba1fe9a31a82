package main

import (
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (exclusive method), because that is
// how the gate that reads this benchmark's output takes a spread. With
// fewer than two samples both are the median.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := sorted(v)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// The sandbox's neighbours slow an operation by up to 1.8x for tens of
// seconds at a time (README.md, "Spread and bounds"), so a window's mean
// or median measures the neighbours. Interference only ever adds time;
// the two statistics below therefore report the fast tenth of a window,
// which is what the program does when left alone, and still rest on
// several operations rather than on the one luckiest.

// p10 is the nearest-rank 10th percentile: the time within which the
// fastest tenth of the operations completed.
func p10(v []float64) float64 { return percentile(v, 10) }

// bestStretchRate takes the completion times (s) of a window's
// operations and returns the highest rate, in operations per second,
// sustained over any stretch of consecutive completions a tenth of the
// window's operations long. ends need not be sorted. With too few
// operations for a stretch it is the rate of the whole window.
func bestStretchRate(ends []float64, elapsed float64) float64 {
	s := sorted(ends)
	k := max(len(s)/10, 1)
	best := float64(len(s)) / elapsed
	for i := 0; i+k < len(s); i++ {
		if d := s[i+k] - s[i]; d > 0 {
			best = max(best, float64(k)/d)
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of v; 0 for no samples.
func percentile(v []float64, p int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := max((p*len(s)+99)/100, 1) // ceil(p/100 n)
	return s[rank-1]
}

// p95MinSamples is the smallest sample that leaves ten observations
// beyond the 95th percentile; below it the percentile is not reported.
const p95MinSamples = 200

// p95 is reported only for samples of at least p95MinSamples.
func p95(v []float64) (float64, bool) {
	if len(v) < p95MinSamples {
		return 0, false
	}
	return percentile(v, 95), true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// mibPerSec is the rate at which n bytes were consumed in d.
func mibPerSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / (1 << 20) / d.Seconds()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
