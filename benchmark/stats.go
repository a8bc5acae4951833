package main

import (
	"math"
	"sort"
)

// quartiles returns p25, median and p75 of vs with the "exclusive" method
// Python's statistics.quantiles(values, n=4) uses, so numbers printed here
// can be checked against the driver's. Fewer than two samples have no
// spread: all three are the sample itself (or 0).
func quartiles(vs []float64) (p25, med, p75 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		frac := pos - float64(lo)
		return s[lo] + frac*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// fastest is the smallest of vs (0 if empty).
func fastest(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo := vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
	}
	return lo
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// geomean is the geometric mean of the positive entries of vs (0 if none).
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio is a/b, 0 when b is 0: per-layer ratios are reported on every
// workload, including those where the layer did nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the q-quantile (nearest rank) of an int64 sample set;
// sorts vs in place.
func percentile(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}
