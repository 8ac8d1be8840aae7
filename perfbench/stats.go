package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, or the mean of the two middle values
// when len(xs) is even (Python's statistics.median). It is NaN for no
// samples.
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

// quantiles cuts xs into n groups of equal probability and returns the
// n-1 cut points, by the same "exclusive" interpolation Python's
// statistics.quantiles uses by default. It needs at least two samples.
func quantiles(xs []float64, n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("quantiles: n must be at least 1, got %d", n)
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("quantiles: need at least 2 samples, got %d", len(xs))
	}
	s := sorted(xs)
	m := len(s) + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m-j*n) / float64(n)
		out = append(out, s[j-1]+(s[j]-s[j-1])*delta)
	}
	return out, nil
}

// quartileSpread is the distance between the first and third quartiles
// of xs as a share of their median: the run-to-run spread measure the
// benchmark's bounds are checked against.
func quartileSpread(xs []float64) (float64, error) {
	q, err := quantiles(xs, 4)
	if err != nil {
		return 0, err
	}
	return (q[2] - q[0]) / median(xs), nil
}

// beyond is how many of n samples lie strictly above percentile p.
func beyond(n int, p float64) int {
	// The epsilon keeps float rounding of n*p from costing a sample.
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// percentile returns the p-th percentile of xs by exclusive
// interpolation (the method of quantiles, at any p). It is NaN for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(len(s)) {
		return s[len(s)-1]
	}
	j := int(pos)
	return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
}

// ratio renders num/base together with the base it was taken against,
// e.g. "1.25x of 4 ms", so a ratio is never printed without its base.
func ratio(num, base float64, unit string) string {
	if base == 0 {
		return fmt.Sprintf("n/a (base 0 %s)", unit)
	}
	return fmt.Sprintf("%.3gx of %.4g %s", num/base, base, unit)
}
