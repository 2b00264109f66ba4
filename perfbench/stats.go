package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailTenths returns the highest percentile, in tenths of a percent, that
// leaves at least ten samples strictly beyond its nearest-rank position in
// a run of n samples — and therefore in every run of n or more, since the
// count beyond, floor(n*(1-p)), never shrinks as n grows. It returns 0
// when n is too small for any tail (n <= 10).
func tailTenths(n int) int {
	if n <= 10 {
		return 0
	}
	return 1000 * (n - 10) / n
}

// beyond is the number of samples of a run of n lying past the
// nearest-rank position of the percentile given in tenths.
func beyond(n, tenths int) int {
	return n - rank(n, tenths)
}

// rank is the 1-based nearest-rank position of the percentile (in tenths
// of a percent) in n sorted samples: ceil(p*n).
func rank(n, tenths int) int {
	r := (tenths*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile (in tenths of a percent)
// of xs, or NaN for no values.
func percentile(xs []float64, tenths int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), tenths)-1]
}
