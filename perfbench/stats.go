package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read off fewer samples moves with every outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and whether it may be reported, i.e. whether at least minBeyond samples
// lie beyond its rank. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], n-1-k >= minBeyond
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
