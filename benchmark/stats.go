package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

// quietQuantile summarises one figure per slice (or per repeat) by a
// quantile counted from its better side: the share-quantile of a
// lower-is-better figure, the (1-share)-quantile of a higher-is-better one.
// Interference from the shared sandbox only ever makes a slice worse, in
// stalls of tens of milliseconds and in slow phases of seconds to a minute,
// so a quantile on the better side is the steadiest estimate of what the
// system itself does: over sixteen runs of json_direct the quartile of six
// slices spread (IQR/median) 7%, the median over slices 16%, and a
// percentile pooled over the window more.
func quietQuantile(perSlice []float64, share float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantile(sortedCopy(perSlice), share)
	}
	return quantile(sortedCopy(perSlice), 1-share)
}

// sliceQuantile computes the q-quantile inside each slice and returns the
// quiet share-quantile of those per-slice figures, with the smallest
// slice's sample count.
func sliceQuantile(perSlice [][]float64, q, share float64) (value float64, minSamples int) {
	var qs []float64
	minSamples = -1
	for _, s := range perSlice {
		if minSamples < 0 || len(s) < minSamples {
			minSamples = len(s)
		}
		if len(s) > 0 {
			qs = append(qs, quantile(sortedCopy(s), q))
		}
	}
	if minSamples < 0 {
		minSamples = 0
	}
	return quietQuantile(qs, share, true), minSamples
}
