package main

import (
	"math"
	"sort"
)

// sortedCopy returns vs sorted ascending without touching the caller's
// slice.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
}

func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// tailPercentiles are the candidates of the reporting rule: a timing is
// given as its median and the highest of these that still has at least
// ten samples beyond it.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// highestPercentile picks, for n samples, the highest candidate
// percentile with at least ten samples beyond it; ok is false when even
// the lowest candidate has fewer.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(100-c)/100 >= 10-1e-9 { // 10000 x 0.1 % is 9.999... in floating point
			p, ok = c, true
		}
	}
	return p, ok
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed by -compare are the ones the acceptance check computes.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
