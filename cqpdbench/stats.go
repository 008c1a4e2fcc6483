package main

import (
	"math"
	"sort"
)

var inf = math.Inf(1)

func sortFloats(v []float64) { sort.Float64s(v) }

// quantile returns the nearest-rank p-quantile of v (0 for no samples):
// the smallest sample with at least a p share of samples at or below it.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }
