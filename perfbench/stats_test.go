package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected cut points are Python's statistics.quantiles output for
// the same inputs, the reference the benchmark's spread check follows.
func TestQuantilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, 4, []float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3}, 4, []float64{1.5, 3, 4.5}},
	} {
		got, err := quantiles(tc.in, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.want {
			if !near(got[i], tc.want[i]) {
				t.Errorf("quantiles(%v, %d) = %v, want %v", tc.in, tc.n, got, tc.want)
				break
			}
		}
	}
	if _, err := quantiles([]float64{1}, 4); err == nil {
		t.Error("quantiles of one sample should fail")
	}
}

func TestQuartileSpread(t *testing.T) {
	got, err := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestPercentileAgreesWithQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	deciles, err := quantiles(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := percentile(xs, 90); !near(got, deciles[8]) || !near(got, 90.9) {
		t.Errorf("percentile(90) = %v, want %v (Python: 90.9)", got, deciles[8])
	}
	if got := percentile(xs, 50); !near(got, median(xs)) {
		t.Errorf("percentile(50) = %v, want the median %v", got, median(xs))
	}
	if got := percentile(xs, 99.99); got != 100 {
		t.Errorf("percentile past the last sample = %v, want the maximum", got)
	}
}

// TestTailBeyond checks the count of samples beyond a tail percentile
// at the percentiles the workloads declare, which decides when a run
// has enough samples to stop.
func TestTailBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{19, 50, 9},
		{20, 50, 10},
		{99, 90, 9},
		{100, 90, 10},
		{765, 90, 76},
		{999, 99, 9},
		{1000, 99, 10},
		{1120, 99, 11},
	} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
	for _, name := range workloadNames {
		wl, err := newWorkload(name, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		switch p := wl.tailPct(); p {
		case 50, 90, 99:
		default:
			t.Errorf("%s reports its tail at p%g, want p50, p90 or p99", name, p)
		}
	}
}

func TestRatioNamesItsBase(t *testing.T) {
	if got := ratio(5, 4, "ms"); got != "1.25x of 4 ms" {
		t.Errorf("ratio(5, 4) = %q", got)
	}
	if got := ratio(1, 0, "s"); !strings.Contains(got, "base 0 s") {
		t.Errorf("ratio over a zero base = %q, want the base named", got)
	}
}
