package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4), which is
// what the benchmark driver applies to run-level values; reps inside a run
// use the same estimator so the two spreads are comparable. A single value
// is its own quartiles; an empty slice gives NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// quantile interpolates the q-th exclusive quantile of the sorted slice s:
// position q*(n+1) counted from 1, clamped to the ends.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	pos := q*float64(n+1) - 1 // zero-based fractional index
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// iqrFrac is the interquartile range as a share of the median — the spread
// figure the driver holds against a metric's bound.
func iqrFrac(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	return (q3 - q1) / m
}
