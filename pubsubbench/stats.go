package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// quantile returns the q-quantile (0 < q < 1) of samples by nearest rank.
// It refuses when fewer than minBeyond samples would lie beyond it, so no
// reported percentile rests on a handful of outliers.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %g outside (0,1)", q)
	}
	// 1-based nearest rank; the epsilon keeps q·n = 90.00000000000001
	// from rounding up a rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥ %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the two middle values for an even
// count). It is used over per-round or per-repeat figures, where the
// samples-beyond rule does not apply.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowedQuantile splits samples (in time order) into windows of at
// least minPerWindow samples, takes the q-quantile of each and returns
// the median of those, so a disturbance that hits a few seconds of the
// run moves a few windows, not the figure. With fewer samples than two
// windows it is the plain quantile, samples-beyond rule included.
func windowedQuantile(samples []float64, q float64, minPerWindow int) (float64, error) {
	if minPerWindow < 1 {
		return quantile(samples, q)
	}
	w := len(samples) / minPerWindow
	if w < 2 {
		return quantile(samples, q)
	}
	size := len(samples) / w
	per := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		hi := (i + 1) * size
		if i == w-1 {
			hi = len(samples)
		}
		v, err := quantile(samples[i*size:hi], q)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	return median(per), nil
}
