package main

import (
	"math"
	"testing"
)

func seqSamples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed, so quantile must sort
	}
	return s
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{19, 0.5, false},
		{20, 0.5, true},
	}
	for _, c := range cases {
		_, err := quantile(seqSamples(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("quantile(n=%d, q=%g) error = %v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v, err := quantile(seqSamples(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	v, err = quantile(seqSamples(100), 0.5)
	if err != nil || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
}

func TestWindowedQuantileIgnoresOneBadWindow(t *testing.T) {
	s := make([]float64, 5000)
	for i := range s {
		s[i] = 1
	}
	for i := 0; i < 1000; i++ { // one window is all stall
		s[i] = 100
	}
	v, err := windowedQuantile(s, 0.99, 1000)
	if err != nil || v != 1 {
		t.Fatalf("windowed p99 = %v, %v; want 1", v, err)
	}
	// Too few samples for two windows: the plain rule applies.
	if _, err := windowedQuantile(seqSamples(999), 0.99, 1000); err == nil {
		t.Fatal("windowed p99 of 999 samples accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}
