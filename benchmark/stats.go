package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile (0..1) of an ascending slice, linearly
// interpolated between the two nearest ranks.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPerMille are the candidates for "the highest percentile that has at
// least ten samples beyond it", highest first, in thousandths.
var tailPerMille = []int{999, 990, 950, 900, 750}

// tail returns the highest candidate percentile with at least ten samples
// beyond its rank, and its value; ok is false when even the lowest candidate
// has fewer (under 40 samples).
func tail(xs []float64) (p, v float64, ok bool) {
	asc := sorted(xs)
	for _, pm := range tailPerMille {
		if len(asc)*(1000-pm)/1000 >= 10 {
			return float64(pm) / 10, quantile(asc, float64(pm)/1000), true
		}
	}
	return 0, 0, false
}

// normalise turns raw host seconds into calibrated seconds: the run's median
// raw time scaled by ref over the run's median reference-loop time. The
// median is normalised, not each repetition — dividing repetition by
// repetition adds the reference loop's own noise to every sample.
func normalise(rawMedian float64, calib []float64, ref float64) float64 {
	return rawMedian * ref / median(calib)
}
