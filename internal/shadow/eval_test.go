package shadow

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// evalOps covers every op class the lane evaluator dispatches: the
// scalar arithmetic forms, min/max, and all four FMA sign variants.
var evalOps = []isa.OpInfo{
	{Name: "add", Class: isa.ClassFPArith, FP: isa.FPAdd},
	{Name: "sub", Class: isa.ClassFPArith, FP: isa.FPSub},
	{Name: "mul", Class: isa.ClassFPArith, FP: isa.FPMul},
	{Name: "div", Class: isa.ClassFPArith, FP: isa.FPDiv},
	{Name: "sqrt", Class: isa.ClassFPArith, FP: isa.FPSqrt},
	{Name: "min", Class: isa.ClassFPArith, FP: isa.FPMin},
	{Name: "max", Class: isa.ClassFPArith, FP: isa.FPMax},
	{Name: "fmadd", Class: isa.ClassFMA, FMA: isa.FMAdd},
	{Name: "fmsub", Class: isa.ClassFMA, FMA: isa.FMSub},
	{Name: "fnmadd", Class: isa.ClassFMA, FMA: isa.FNMAdd},
	{Name: "fnmsub", Class: isa.ClassFMA, FMA: isa.FNMSub},
}

// laneGen draws lane inputs for one native format and shadow precision:
// random and boundary operands, exact operations, ties at the native
// format and at prec, near-overflow results, shadow values just above a
// subnormal-range rounding midpoint, and tiny addends whose local error
// lands in binary64's subnormal range at large precisions.
type laneGen struct {
	r      *rand.Rand
	single bool
	prec   uint
}

func (g *laneGen) mbits() int {
	if g.single {
		return 24
	}
	return 53
}

// native draws one finite-or-not native operand as a float64 value of
// the format (float32 values when single).
func (g *laneGen) native() float64 {
	r := g.r
	maxFin, minDen, minNorm := math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022
	emax := 1023
	if g.single {
		maxFin, minDen, minNorm, emax = math.MaxFloat32, 0x1p-149, 0x1p-126, 127
	}
	var f float64
	switch r.Intn(10) {
	case 0:
		f = []float64{0, math.Copysign(0, -1), minDen, 3 * minDen, minNorm, maxFin, 1, 0.5, 1.5, 3, 0.1}[r.Intn(11)]
	case 1: // random bits, non-finite patterns included
		if g.single {
			return float64(math.Float32frombits(r.Uint32()))
		}
		f = math.Float64frombits(r.Uint64())
	case 2: // small odd integers times a power of two: exact ops and ties
		f = math.Ldexp(float64(2*r.Intn(8)+1), r.Intn(40)-20)
	case 3: // near overflow
		f = maxFin * (1 - r.Float64()*0x1p-20)
	case 4: // subnormal
		f = minDen * float64(1+r.Intn(1<<20))
	case 5: // anywhere in the exponent range
		f = math.Ldexp(1+r.Float64(), r.Intn(2*emax)-emax)
	default:
		f = (r.Float64() - 0.5) * math.Ldexp(1, r.Intn(120)-60)
	}
	if r.Intn(2) == 0 {
		f = -f
	}
	if g.single {
		return float64(float32(f))
	}
	return f
}

// nativeNear draws an operand a power-of-two step below x: a half-ulp
// tie at the native format or at prec, or a tiny addend far below it.
func (g *laneGen) nativeNear(x float64) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return g.native()
	}
	_, e := math.Frexp(x)
	var k int
	switch g.r.Intn(4) {
	case 0:
		k = g.mbits()
	case 1:
		k = g.mbits() + 1
	case 2:
		k = int(g.prec) + 1
	default:
		k = g.r.Intn(2200)
	}
	f := math.Ldexp(float64(1+2*g.r.Intn(4)), e-k)
	if g.single {
		f = float64(float32(f))
	}
	if g.r.Intn(2) == 0 {
		f = -f
	}
	return f
}

// shadowOf draws a shadow operand for native value x in the number
// system the channel keeps: nil (equal to native), a perturbed copy at
// prec, or a value just above a rounding midpoint of the native
// format's subnormal range, where rounding to the format's precision
// first and then to the subnormal's would round twice.
func (g *laneGen) shadowOf(x float64) *big.Float {
	r := g.r
	if r.Intn(3) == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	native := formatPrec(g.single)
	v := new(big.Float).SetPrec(g.prec)
	switch r.Intn(4) {
	case 0:
		quantum := -1074
		if g.single {
			quantum = -149
		}
		m := new(big.Float).SetFloat64(float64(2*r.Intn(8)+1) / 2)
		eps := new(big.Float).SetMantExp(big.NewFloat(1), -r.Intn(int(g.prec)+8)-1)
		v.Add(m, eps)
		v.SetMantExp(v, quantum)
	default:
		v.SetFloat64(x)
		if x == 0 {
			v.SetFloat64(math.Ldexp(1, -r.Intn(1100)))
		}
		delta := new(big.Float).SetMantExp(v, -r.Intn(int(g.prec)+4)-1)
		if r.Intn(2) == 0 {
			delta.Neg(delta)
		}
		v.Add(v, delta)
	}
	if g.prec == native {
		// At the native precision the channel keeps native-format
		// values (binary64 at prec 53, binary32 at prec 24).
		if g.single {
			f, _ := v.Float32()
			return new(big.Float).SetFloat64(float64(f))
		}
		f, _ := v.Float64()
		return new(big.Float).SetFloat64(f)
	}
	if v.IsInf() {
		return nil
	}
	return v
}

// bits converts a float64 value of the format to its native pattern.
func (g *laneGen) bits(f float64) uint64 {
	if g.single {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

// sample draws one lane: operand bits, shadows, and the native result
// the hardware would have written (softfloat, round-to-nearest-even).
func (g *laneGen) sample(info *isa.OpInfo) (nat [3]uint64, sh [3]*big.Float, natOut uint64) {
	var v [3]float64
	v[0] = g.native()
	v[1], v[2] = g.native(), g.native()
	switch g.r.Intn(4) {
	case 0:
		v[1] = g.nativeNear(v[0])
	case 1:
		v[2] = g.nativeNear(v[0] * v[1])
	case 2:
		if p := int(g.prec); p < g.mbits() {
			// A native operand on a rounding midpoint of prec, wider
			// than the shadow number system, nudged by a tiny other
			// operand that a wide evaluation absorbs.
			v[0] = math.Ldexp(1+math.Ldexp(1, -p), g.r.Intn(40)-20)
			v[1] = g.nativeNear(v[0])
		}
	}
	for i := range v {
		nat[i] = g.bits(v[i])
		sh[i] = g.shadowOf(v[i])
	}
	return nat, sh, g.native1(info, nat)
}

// native1 is the hardware result of one lane.
func (g *laneGen) native1(info *isa.OpInfo, nat [3]uint64) uint64 {
	env := rnEnv
	if g.single {
		a, b, c := uint32(nat[0]), uint32(nat[1]), uint32(nat[2])
		var r uint32
		switch info.Class {
		case isa.ClassFMA:
			switch info.FMA {
			case isa.FMAdd:
				r, _ = softfloat.FMA32(a, b, c, env)
			case isa.FMSub:
				r, _ = softfloat.FMA32(a, b, c^sign32, env)
			case isa.FNMAdd:
				r, _ = softfloat.FMA32(a^sign32, b, c, env)
			case isa.FNMSub:
				r, _ = softfloat.FMA32(a^sign32, b, c^sign32, env)
			}
		default:
			r = arith32(info.FP, a, b)
		}
		return uint64(r)
	}
	a, b, c := nat[0], nat[1], nat[2]
	var r uint64
	switch info.Class {
	case isa.ClassFMA:
		switch info.FMA {
		case isa.FMAdd:
			r, _ = softfloat.FMA64(a, b, c, env)
		case isa.FMSub:
			r, _ = softfloat.FMA64(a, b, c^sign64, env)
		case isa.FNMAdd:
			r, _ = softfloat.FMA64(a^sign64, b, c, env)
		case isa.FNMSub:
			r, _ = softfloat.FMA64(a^sign64, b, c^sign64, env)
		}
	default:
		r = arith64(info.FP, a, b)
	}
	return r
}

func arith64(fp isa.FPOp, a, b uint64) uint64 {
	var r uint64
	switch fp {
	case isa.FPAdd:
		r, _ = softfloat.Add64(a, b, rnEnv)
	case isa.FPSub:
		r, _ = softfloat.Sub64(a, b, rnEnv)
	case isa.FPMul:
		r, _ = softfloat.Mul64(a, b, rnEnv)
	case isa.FPDiv:
		r, _ = softfloat.Div64(a, b, rnEnv)
	case isa.FPSqrt:
		r, _ = softfloat.Sqrt64(a, rnEnv)
	case isa.FPMin:
		r, _ = softfloat.Min64(a, b, rnEnv)
	case isa.FPMax:
		r, _ = softfloat.Max64(a, b, rnEnv)
	}
	return r
}

func arith32(fp isa.FPOp, a, b uint32) uint32 {
	var r uint32
	switch fp {
	case isa.FPAdd:
		r, _ = softfloat.Add32(a, b, rnEnv)
	case isa.FPSub:
		r, _ = softfloat.Sub32(a, b, rnEnv)
	case isa.FPMul:
		r, _ = softfloat.Mul32(a, b, rnEnv)
	case isa.FPDiv:
		r, _ = softfloat.Div32(a, b, rnEnv)
	case isa.FPSqrt:
		r, _ = softfloat.Sqrt32(a, rnEnv)
	case isa.FPMin:
		r, _ = softfloat.Min32(a, b, rnEnv)
	case isa.FPMax:
		r, _ = softfloat.Max32(a, b, rnEnv)
	}
	return r
}

// sameFloat compares two results bit for bit: presence, precision,
// rounding mode, sign, infinity and value.
func sameFloat(x, y *big.Float) bool {
	if x == nil || y == nil {
		return x == y
	}
	return x.Prec() == y.Prec() && x.Mode() == y.Mode() && x.Signbit() == y.Signbit() &&
		x.IsInf() == y.IsInf() && x.Cmp(y) == 0
}

func laneString(r laneResult) string {
	v := "<nil>"
	if r.sh != nil {
		v = fmt.Sprintf("%s (prec %d)", r.sh.Text('p', 0), r.sh.Prec())
	}
	return fmt.Sprintf("class=%s sh=%s local=%x rel=%x total=%x dist=%d", r.class, v, r.local, r.rel, r.total, r.dist)
}

// TestShadowEvalMatchesReference holds the scratch evaluator to the
// allocate-per-op reference (reference_test.go) bit for bit on every
// laneResult field, for both native formats, at precisions from below
// binary64's up to the maximum, with and without shadow operands.
func TestShadowEvalMatchesReference(t *testing.T) {
	const perOp = 250
	var s scratch
	counts := map[SampleClass]int{}
	for _, prec := range []uint{24, 53, 64, 113, 256, 4096} {
		wide := widePrec(prec)
		for _, single := range []bool{false, true} {
			g := &laneGen{r: rand.New(rand.NewSource(int64(prec)*2 + 1)), single: single, prec: prec}
			for i := range evalOps {
				info := evalOps[i]
				info.Prec, info.Lanes = isa.F64, 1
				if single {
					info.Prec = isa.F32
				}
				for n := 0; n < perOp; n++ {
					nat, sh, natOut := g.sample(&info)
					got := s.lane(&info, single, nat, sh, natOut, wide, prec)
					var want laneResult
					if single {
						want = refLane32(&info, [3]uint32{uint32(nat[0]), uint32(nat[1]), uint32(nat[2])},
							sh, uint32(natOut), wide, prec)
					} else {
						want = refLane64(&info, nat, sh, natOut, wide, prec)
					}
					counts[want.class]++
					if got.class != want.class || !sameFloat(got.sh, want.sh) ||
						math.Float64bits(got.local) != math.Float64bits(want.local) ||
						math.Float64bits(got.rel) != math.Float64bits(want.rel) ||
						math.Float64bits(got.total) != math.Float64bits(want.total) ||
						got.dist != want.dist {
						t.Fatalf("prec %d single=%v %s(%#x, %#x, %#x) → %#x, shadows %v:\n got %s\nwant %s",
							prec, single, info.Name, nat[0], nat[1], nat[2], natOut, sh, laneString(got), laneString(want))
					}
				}
			}
		}
	}
	for _, c := range []SampleClass{SampleExact, SampleRounded, SampleDiverged, SampleNonFinite} {
		if counts[c] == 0 {
			t.Errorf("no %s samples; the generator no longer covers that class", c)
		}
	}
}

// TestShadowEmulateMatchesReference holds Emulate64, the trap-and-emulate
// entry point, to the reference the same way.
func TestShadowEmulateMatchesReference(t *testing.T) {
	clean := rnEnv
	for _, prec := range []uint{53, 113, 1024} {
		g := &laneGen{r: rand.New(rand.NewSource(int64(prec))), prec: prec}
		for i := range evalOps {
			info := evalOps[i]
			info.Prec, info.Lanes = isa.F64, 1
			for n := 0; n < 100; n++ {
				nat, sh, _ := g.sample(&info)
				v, bits, hw, ok := Emulate64(&info, clean, nat, sh, prec)
				wv, wbits, whw, wok := refEmulate64(&info, clean, nat, sh, prec)
				if ok != wok || !sameFloat(v, wv) || bits != wbits || hw != whw {
					t.Fatalf("prec %d %s(%#x, %#x, %#x): got (%v %#x %#x %v), want (%v %#x %#x %v)",
						prec, info.Name, nat[0], nat[1], nat[2], v, bits, hw, ok, wv, wbits, whw, wok)
				}
			}
		}
		cvt := isa.OpCVTSI2SDQ.Info()
		for n := 0; n < 100; n++ {
			nat := [3]uint64{g.r.Uint64() >> uint(g.r.Intn(64))}
			v, bits, hw, _ := Emulate64(cvt, clean, nat, [3]*big.Float{}, prec)
			wv, wbits, whw, _ := refEmulate64(cvt, clean, nat, [3]*big.Float{}, prec)
			if !sameFloat(v, wv) || bits != wbits || hw != whw {
				t.Fatalf("prec %d cvtsi2sdq(%#x): got (%v %#x %#x), want (%v %#x %#x)", prec, nat[0], v, bits, hw, wv, wbits, whw)
			}
		}
	}
}

// TestShadowLaneAllocs pins the allocation cost of a shadow-executed
// lane at prec 113: the shadow value the lane keeps (a big.Float and its
// mantissa) plus what math/big allocates inside a quotient or square
// root; every other intermediate lives in the channel's scratch.
func TestShadowLaneAllocs(t *testing.T) {
	const prec = 113
	wide := widePrec(prec)
	var s scratch
	sh := new(big.Float).SetPrec(prec).SetFloat64(0.1)
	sh.Add(sh, new(big.Float).SetMantExp(sh, -60))
	lanes := []struct {
		op   isa.OpInfo
		a, b uint64
	}{
		{isa.OpInfo{Class: isa.ClassFPArith, FP: isa.FPAdd, Prec: isa.F64, Lanes: 1}, math.Float64bits(0.1), math.Float64bits(1.0000000001)},
		{isa.OpInfo{Class: isa.ClassFPArith, FP: isa.FPMul, Prec: isa.F64, Lanes: 1}, math.Float64bits(0.1), math.Float64bits(1.0000000001)},
		{isa.OpInfo{Class: isa.ClassFPArith, FP: isa.FPDiv, Prec: isa.F64, Lanes: 1}, math.Float64bits(0.1), math.Float64bits(3)},
		{isa.OpInfo{Class: isa.ClassFMA, FMA: isa.FMAdd, Prec: isa.F64, Lanes: 1}, math.Float64bits(0.1), math.Float64bits(3)},
	}
	run := func() {
		for i := range lanes {
			ln := &lanes[i]
			var out uint64
			if ln.op.Class == isa.ClassFMA {
				out, _ = softfloat.FMA64(ln.a, ln.b, ln.a, rnEnv)
			} else {
				out = arith64(ln.op.FP, ln.a, ln.b)
			}
			if r := s.lane(&ln.op, false, [3]uint64{ln.a, ln.b, ln.a}, [3]*big.Float{sh, nil, sh}, out, wide, prec); r.class == SampleNonFinite {
				t.Fatalf("lane %d did not shadow-execute", i)
			}
		}
	}
	run() // size the scratch mantissas
	perLane := testing.AllocsPerRun(50, run) / float64(len(lanes))
	// Measured 4.5 per lane on this mix; the allocate-per-op reference
	// takes 20.25.
	if perLane > 6 {
		t.Errorf("a shadow-executed lane allocates %.2f times; want ≤ 6 (per-op scratch allocation crept back in?)", perLane)
	}
}
