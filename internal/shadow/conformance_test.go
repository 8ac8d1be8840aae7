package shadow

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// The conformance property behind the prec-53/24 shadow modes: for every
// supported operation, evaluating at wide precision from the native
// inputs and rounding once through float64/float32 reproduces the
// softfloat FPU bit-exactly, signed zeros included. Lanes the policy
// skips (non-finite operands or results) are exactly the lanes softfloat
// resolves with NaN/Inf special cases, so everything that shadow-executes
// must agree to the last bit.

var rnEnv = softfloat.Env{RM: softfloat.RoundNearestEven}

// wideArith and wideFMA evaluate at the wide precision, as the local
// evaluation does; shadowBits64/32 round a wide result through the
// prec-53/24 shadow path and read back its native bits.
func wideArith(fp isa.FPOp, a, b *big.Float, wide uint) (*big.Float, bool) {
	z := new(big.Float).SetPrec(wide)
	return z, evalArith(z, fp, a, b)
}

func wideFMA(v isa.FMAVariant, a, b, c *big.Float, wide uint) (*big.Float, bool) {
	var s scratch
	z := new(big.Float).SetPrec(wide)
	return z, s.evalFMA(z, v, a, b, c)
}

func shadowBits64(r *big.Float) uint64 {
	var s scratch
	return math.Float64bits(s.float64Of(s.roundShadow(r, false, 53), 0))
}

func shadowBits32(r *big.Float) uint32 {
	var s scratch
	return math.Float32bits(s.float32Of(s.roundShadow(r, true, 24)))
}

// corpus64 mixes the boundary patterns (zeros, denormals, powers of two,
// overflow fringe, non-finites to be skipped) with seeded random bit
// patterns and random mid-range values.
func corpus64() []uint64 {
	c := []uint64{
		pzero64, nzero64,
		minDen64, sign64 | minDen64,
		0x000FFFFFFFFFFFFF,          // largest denormal
		0x0010000000000000,          // smallest normal
		maxFin64, sign64 | maxFin64, // overflow fringe
		posInf64, sign64 | posInf64,
		qnan64,
		math.Float64bits(1.0), math.Float64bits(-1.0),
		math.Float64bits(0.1), math.Float64bits(0.5),
		math.Float64bits(1.5), math.Float64bits(2.0),
		math.Float64bits(math.Pi), math.Float64bits(1e300),
		math.Float64bits(1e-300), math.Float64bits(3.0),
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		c = append(c, r.Uint64())
	}
	for i := 0; i < 20; i++ {
		c = append(c, math.Float64bits((r.Float64()-0.5)*math.Ldexp(1, r.Intn(120)-60)))
	}
	return c
}

func corpus32() []uint32 {
	c := []uint32{
		0, sign32,
		1, sign32 | 1,
		0x007FFFFF, 0x00800000,
		0x7F7FFFFF, sign32 | 0x7F7FFFFF,
		0x7F800000, 0xFF800000,
		0x7FC00000,
		math.Float32bits(1.0), math.Float32bits(-1.0),
		math.Float32bits(0.1), math.Float32bits(0.5),
		math.Float32bits(1.5), math.Float32bits(3.0),
		math.Float32bits(1e30), math.Float32bits(1e-30),
	}
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 40; i++ {
		c = append(c, r.Uint32())
	}
	for i := 0; i < 20; i++ {
		c = append(c, math.Float32bits(float32((r.Float64()-0.5)*math.Ldexp(1, r.Intn(60)-30))))
	}
	return c
}

func TestConformance64Arith(t *testing.T) {
	ops := []struct {
		fp   isa.FPOp
		name string
		soft func(a, b uint64) uint64
	}{
		{isa.FPAdd, "add", func(a, b uint64) uint64 { r, _ := softfloat.Add64(a, b, rnEnv); return r }},
		{isa.FPSub, "sub", func(a, b uint64) uint64 { r, _ := softfloat.Sub64(a, b, rnEnv); return r }},
		{isa.FPMul, "mul", func(a, b uint64) uint64 { r, _ := softfloat.Mul64(a, b, rnEnv); return r }},
		{isa.FPDiv, "div", func(a, b uint64) uint64 { r, _ := softfloat.Div64(a, b, rnEnv); return r }},
		{isa.FPMin, "min", func(a, b uint64) uint64 { r, _ := softfloat.Min64(a, b, rnEnv); return r }},
		{isa.FPMax, "max", func(a, b uint64) uint64 { r, _ := softfloat.Max64(a, b, rnEnv); return r }},
	}
	corpus := corpus64()
	wide := widePrec(53)
	compared := 0
	for _, op := range ops {
		for _, a := range corpus {
			for _, b := range corpus {
				want := op.soft(a, b)
				if !finite64(a) || !finite64(b) || !finite64(want) {
					continue // policy: skipped, never shadow-executed
				}
				r, ok := wideArith(op.fp, bigOf64(a), bigOf64(b), wide)
				if !ok {
					t.Fatalf("%s(%#x,%#x): eval refused a finite-result op", op.name, a, b)
				}
				got := shadowBits64(r)
				if got != want {
					t.Fatalf("%s(%#x,%#x) = %#x, softfloat %#x", op.name, a, b, got, want)
				}
				compared++
			}
		}
	}
	if compared < 10000 {
		t.Fatalf("only %d comparisons ran; corpus too thin", compared)
	}
}

func TestConformance64Sqrt(t *testing.T) {
	wide := widePrec(53)
	zero := bigOf64(0)
	compared := 0
	for _, a := range corpus64() {
		want, _ := softfloat.Sqrt64(a, rnEnv)
		if !finite64(a) || !finite64(want) {
			continue
		}
		r, ok := wideArith(isa.FPSqrt, bigOf64(a), zero, wide)
		if !ok {
			t.Fatalf("sqrt(%#x): eval refused a finite-result op", a)
		}
		if got := shadowBits64(r); got != want {
			t.Fatalf("sqrt(%#x) = %#x, softfloat %#x", a, got, want)
		}
		compared++
	}
	if compared < 30 {
		t.Fatalf("only %d comparisons ran", compared)
	}
}

func TestConformance64FMA(t *testing.T) {
	variants := []struct {
		v    isa.FMAVariant
		name string
		soft func(a, b, c uint64) uint64
	}{
		{isa.FMAdd, "fmadd", func(a, b, c uint64) uint64 { r, _ := softfloat.FMA64(a, b, c, rnEnv); return r }},
		{isa.FMSub, "fmsub", func(a, b, c uint64) uint64 {
			r, _ := softfloat.FMA64(a, b, c^sign64, rnEnv)
			return r
		}},
	}
	// A reduced corpus keeps the triple loop tractable.
	corpus := corpus64()[:32]
	wide := widePrec(53)
	compared := 0
	for _, v := range variants {
		for _, a := range corpus {
			for _, b := range corpus {
				for _, c := range corpus {
					want := v.soft(a, b, c)
					if !finite64(a) || !finite64(b) || !finite64(c) || !finite64(want) {
						continue
					}
					r, ok := wideFMA(v.v, bigOf64(a), bigOf64(b), bigOf64(c), wide)
					if !ok {
						t.Fatalf("%s(%#x,%#x,%#x): eval refused", v.name, a, b, c)
					}
					got := shadowBits64(r)
					if got != want {
						t.Fatalf("%s(%#x,%#x,%#x) = %#x, softfloat %#x", v.name, a, b, c, got, want)
					}
					compared++
				}
			}
		}
	}
	if compared < 10000 {
		t.Fatalf("only %d comparisons ran; corpus too thin", compared)
	}
}

func TestConformance32Arith(t *testing.T) {
	ops := []struct {
		fp   isa.FPOp
		name string
		soft func(a, b uint32) uint32
	}{
		{isa.FPAdd, "add", func(a, b uint32) uint32 { r, _ := softfloat.Add32(a, b, rnEnv); return r }},
		{isa.FPSub, "sub", func(a, b uint32) uint32 { r, _ := softfloat.Sub32(a, b, rnEnv); return r }},
		{isa.FPMul, "mul", func(a, b uint32) uint32 { r, _ := softfloat.Mul32(a, b, rnEnv); return r }},
		{isa.FPDiv, "div", func(a, b uint32) uint32 { r, _ := softfloat.Div32(a, b, rnEnv); return r }},
		{isa.FPMin, "min", func(a, b uint32) uint32 { r, _ := softfloat.Min32(a, b, rnEnv); return r }},
		{isa.FPMax, "max", func(a, b uint32) uint32 { r, _ := softfloat.Max32(a, b, rnEnv); return r }},
	}
	corpus := corpus32()
	wide := widePrec(24)
	compared := 0
	for _, op := range ops {
		for _, a := range corpus {
			for _, b := range corpus {
				want := op.soft(a, b)
				if !finite32(a) || !finite32(b) || !finite32(want) {
					continue
				}
				r, ok := wideArith(op.fp, bigOf32(a), bigOf32(b), wide)
				if !ok {
					t.Fatalf("%s(%#x,%#x): eval refused a finite-result op", op.name, a, b)
				}
				got := shadowBits32(r)
				if got != want {
					t.Fatalf("%s(%#x,%#x) = %#x, softfloat %#x", op.name, a, b, got, want)
				}
				compared++
			}
		}
	}
	if compared < 10000 {
		t.Fatalf("only %d comparisons ran; corpus too thin", compared)
	}
}

func TestConformance32FMA(t *testing.T) {
	corpus := corpus32()[:32]
	wide := widePrec(24)
	compared := 0
	for _, a := range corpus {
		for _, b := range corpus {
			for _, c := range corpus {
				want, _ := softfloat.FMA32(a, b, c, rnEnv)
				if !finite32(a) || !finite32(b) || !finite32(c) || !finite32(want) {
					continue
				}
				r, ok := wideFMA(isa.FMAdd, bigOf32(a), bigOf32(b), bigOf32(c), wide)
				if !ok {
					t.Fatalf("fmadd(%#x,%#x,%#x): eval refused", a, b, c)
				}
				got := shadowBits32(r)
				if got != want {
					t.Fatalf("fmadd(%#x,%#x,%#x) = %#x, softfloat %#x", a, b, c, got, want)
				}
				compared++
			}
		}
	}
	if compared < 5000 {
		t.Fatalf("only %d comparisons ran; corpus too thin", compared)
	}
}

func TestSupportedForms(t *testing.T) {
	// The predicate the whole channel hangs off: binary64 arith/FMA at
	// any width, scalar binary32, nothing else.
	yes := []isa.Opcode{
		isa.OpADDSD, isa.OpDIVSD, isa.OpSQRTSD, isa.OpMINSD,
		isa.OpADDPD, isa.OpVADDPDZ, isa.OpVADDPDKZ, isa.OpVSQRTPDKZ,
		isa.OpVFMADDSD, isa.OpVFMADDPDZ,
		isa.OpADDSS, isa.OpMULSS, isa.OpVFMADDSS,
	}
	no := []isa.Opcode{
		isa.OpVADDPSZ, isa.OpVADDPSKZ, // packed binary32
		isa.OpCVTSD2SS, isa.OpCMPSD, isa.OpUCOMISD,
		isa.OpROUNDSD, isa.OpVDPPS, isa.OpMOVSD, isa.OpFLD,
	}
	for _, op := range yes {
		if !Supported(op) {
			t.Errorf("Supported(%s) = false, want true", op.Info().Name)
		}
	}
	for _, op := range no {
		if Supported(op) {
			t.Errorf("Supported(%s) = true, want false", op.Info().Name)
		}
	}
}
