package shadow

import (
	"math"
	"math/big"
	"testing"
)

const (
	pzero64  = uint64(0)
	nzero64  = sign64
	minDen64 = uint64(1)                  // smallest positive denormal
	maxFin64 = uint64(0x7FEFFFFFFFFFFFFF) // largest finite
	posInf64 = uint64(0x7FF0000000000000)
	qnan64   = uint64(0x7FF8000000000000)
)

func TestDist64ZeroCollapse(t *testing.T) {
	// +0 and −0 are the same point on the ordinal line.
	if d, ok := Dist64(pzero64, nzero64); !ok || d != 0 {
		t.Errorf("dist(+0,-0) = %d,%v, want 0,true", d, ok)
	}
	// Either zero is one step from the smallest denormal of either sign.
	for _, z := range []uint64{pzero64, nzero64} {
		if d, _ := Dist64(z, minDen64); d != 1 {
			t.Errorf("dist(%#x, minDen) = %d, want 1", z, d)
		}
		if d, _ := Dist64(z, sign64|minDen64); d != 1 {
			t.Errorf("dist(%#x, -minDen) = %d, want 1", z, d)
		}
	}
	// Crossing zero: the two smallest denormals are two apart.
	if d, _ := Dist64(minDen64, sign64|minDen64); d != 2 {
		t.Errorf("dist(minDen, -minDen) = %d, want 2", d)
	}
}

func TestDist64DenormalAdjacency(t *testing.T) {
	// The denormal range is ordinary territory: adjacent patterns are
	// distance 1, including across the denormal/normal boundary.
	minNorm := uint64(0x0010000000000000)
	if d, _ := Dist64(minNorm-1, minNorm); d != 1 {
		t.Errorf("dist(maxDen, minNorm) = %d, want 1", d)
	}
	for _, f := range []float64{1.0, 0.1, 1e-300, 5e-324, 1e300} {
		b := math.Float64bits(f)
		n := math.Float64bits(math.Nextafter(f, math.Inf(1)))
		if d, ok := Dist64(b, n); !ok || d != 1 {
			t.Errorf("dist(%g, nextafter) = %d,%v, want 1,true", f, d, ok)
		}
	}
}

func TestDist64Infinities(t *testing.T) {
	// Inf sits one past MaxFinite, so Inf-vs-finite divergence is huge
	// but finite and comparable.
	if d, ok := Dist64(maxFin64, posInf64); !ok || d != 1 {
		t.Errorf("dist(maxFinite, +Inf) = %d,%v, want 1,true", d, ok)
	}
	// Inf−Inf: the full span of the line, not a crash or a zero.
	d, ok := Dist64(posInf64, sign64|posInf64)
	if !ok || d != 2*posInf64 {
		t.Errorf("dist(+Inf,-Inf) = %d,%v, want %d,true", d, ok, 2*posInf64)
	}
}

func TestDist64NaNPolicy(t *testing.T) {
	// Exactly one NaN: incomparable.
	if _, ok := Dist64(qnan64, math.Float64bits(1.0)); ok {
		t.Error("one-NaN comparison reported comparable")
	}
	if _, ok := Dist64(math.Float64bits(1.0), qnan64); ok {
		t.Error("one-NaN comparison reported comparable (swapped)")
	}
	// Two NaNs agree the result is undefined: distance 0, regardless of
	// payload or sign.
	if d, ok := Dist64(qnan64, sign64|qnan64|0x1234); !ok || d != 0 {
		t.Errorf("dist(NaN,NaN) = %d,%v, want 0,true", d, ok)
	}
}

func TestDist32Boundaries(t *testing.T) {
	pinf := uint32(0x7F800000)
	if d, ok := Dist32(0, sign32); !ok || d != 0 {
		t.Errorf("dist32(+0,-0) = %d,%v", d, ok)
	}
	if d, _ := Dist32(0, 1); d != 1 {
		t.Errorf("dist32(+0,minDen) = %d, want 1", d)
	}
	if d, _ := Dist32(1, sign32|1); d != 2 {
		t.Errorf("dist32(minDen,-minDen) = %d, want 2", d)
	}
	if d, _ := Dist32(0x7F7FFFFF, pinf); d != 1 {
		t.Errorf("dist32(maxFinite,+Inf) = %d, want 1", d)
	}
	if d, ok := Dist32(pinf, sign32|pinf); !ok || d != uint64(2*pinf) {
		t.Errorf("dist32(+Inf,-Inf) = %d,%v, want %d", d, ok, 2*pinf)
	}
	if _, ok := Dist32(0x7FC00000, 0); ok {
		t.Error("one-NaN comparison reported comparable")
	}
	if d, ok := Dist32(0x7FC00000, 0xFFC00001); !ok || d != 0 {
		t.Errorf("dist32(NaN,NaN) = %d,%v, want 0,true", d, ok)
	}
}

func TestFracUlps64(t *testing.T) {
	var s scratch
	wide := widePrec(53)
	diffOf := func(exact, native float64) *big.Float {
		a := new(big.Float).SetPrec(wide).SetFloat64(exact)
		return a.Sub(a, new(big.Float).SetFloat64(native))
	}
	// Zero difference is exactly zero error.
	if got := s.fracUlps(diffOf(1.0, 1.0), ulpExp64(math.Float64bits(1.0))); got != 0 {
		t.Errorf("zero diff = %v", got)
	}
	// ulp(1.0) = 2^-52: a half-ulp difference is exactly 0.5.
	half := new(big.Float).SetMantExp(big.NewFloat(1), -53)
	if got := s.fracUlps(half, ulpExp64(math.Float64bits(1.0))); got != 0.5 {
		t.Errorf("half-ulp at 1.0 = %v, want 0.5", got)
	}
	// In the denormal range the quantum is 2^-1074, for zeros too.
	den := new(big.Float).SetMantExp(big.NewFloat(1), -1075)
	if got := s.fracUlps(den, ulpExp64(minDen64)); got != 0.5 {
		t.Errorf("half-quantum at minDen = %v, want 0.5", got)
	}
	if got := s.fracUlps(den, ulpExp64(pzero64)); got != 0.5 {
		t.Errorf("half-quantum at +0 = %v, want 0.5", got)
	}
	// A pathological divergence saturates at the cap instead of Inf.
	huge := new(big.Float).SetFloat64(1e300)
	if got := s.fracUlps(huge, ulpExp64(minDen64)); got != fracUlpCap {
		t.Errorf("capped sample = %v, want %v", got, fracUlpCap)
	}
}

func TestFracUlps32(t *testing.T) {
	var s scratch
	one := math.Float32bits(1.0)
	// ulp(1.0f) = 2^-23.
	half := new(big.Float).SetMantExp(big.NewFloat(1), -24)
	if got := s.fracUlps(half, ulpExp32(one)); got != 0.5 {
		t.Errorf("half-ulp at 1.0f = %v, want 0.5", got)
	}
	den := new(big.Float).SetMantExp(big.NewFloat(1), -150)
	if got := s.fracUlps(den, ulpExp32(1)); got != 0.5 {
		t.Errorf("half-quantum at minDen32 = %v, want 0.5", got)
	}
	if got := s.fracUlps(new(big.Float).SetFloat64(1e30), ulpExp32(1)); got != fracUlpCap {
		t.Errorf("capped sample = %v, want %v", got, fracUlpCap)
	}
}

func TestWidePrec(t *testing.T) {
	// Small precisions use the safe base; large ones keep the 3p+8
	// margin the FMA tail addition needs.
	if got := widePrec(53); got != 256 {
		t.Errorf("widePrec(53) = %d, want 256", got)
	}
	if got := widePrec(113); got != 347 {
		t.Errorf("widePrec(113) = %d, want 347", got)
	}
	if got := widePrec(1024); got != 3080 {
		t.Errorf("widePrec(1024) = %d, want 3080", got)
	}
}
