package shadow

import (
	"math"
	"math/big"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// baseWidePrec is the minimum working precision for the near-exact
// evaluation that local error is measured against. 256 ≥ 2·53+2, so the
// double rounding of wide-then-float64 is innocuous (Figueroa's
// theorem) and the prec-53 shadow path reproduces binary64 bit-exactly;
// the same margin holds for float32 at prec 24.
const baseWidePrec = 256

// widePrec returns the working precision for a shadow precision of prec
// bits: wide enough that rounding the wide result down to prec is
// equivalent to a single correctly rounded operation at prec. The 3p
// margin covers the worst case, the FMA tail addition, whose left
// operand (the exact product) carries up to 2·prec+2 significant bits.
func widePrec(prec uint) uint {
	if w := 3*prec + 8; w > baseWidePrec {
		return w
	}
	return baseWidePrec
}

// one is the read-only constant the round-to-odd nudge is scaled from.
var one = big.NewFloat(1)

// scratch holds the evaluator's working big.Floats: the native operands
// and output, the local and wide shadow results, the differences, the
// FMA product, and the temporaries of quotients and conversions. Each is
// reset with SetPrec(0) and then set, so it takes the precision a fresh
// big.Float would and reuses its mantissa storage from lane to lane;
// only a lane's shadow result, which the channel keeps, is newly
// allocated. A Channel owns one scratch and drives it single-threadedly.
type scratch struct {
	nat   [3]big.Float
	local big.Float
	wide  big.Float
	out   big.Float
	diff  big.Float
	prod  big.Float
	q     big.Float
	t     big.Float
}

// laneResult is one shadow-executed lane comparison.
type laneResult struct {
	class SampleClass
	sh    *big.Float
	local float64
	rel   float64
	total float64
	dist  uint64
}

// lane runs the local and shadow evaluations for one lane of a binary64
// op, or of a binary32 op when single (bit patterns in the low 32 bits),
// and compares both with the native output natOut. nat and sh are the
// operands as for results.
func (s *scratch) lane(info *isa.OpInfo, single bool, nat [3]uint64, sh [3]*big.Float, natOut uint64, wide, prec uint) laneResult {
	if !finiteIn(single, natOut) {
		return laneResult{class: SampleNonFinite}
	}
	rLocal, v, ok := s.results(info, single, nat, sh, wide, prec)
	if !ok {
		return laneResult{class: SampleNonFinite}
	}
	out := s.out.SetPrec(0).SetFloat64(valueOf(single, natOut))
	ue := ulpExp64(natOut)
	if single {
		ue = ulpExp32(uint32(natOut))
	}
	diff := s.diff.SetPrec(0).SetPrec(wide).Sub(rLocal, out)
	local := s.fracUlps(diff, ue)
	rel := s.relErr(diff, rLocal)
	total := s.fracUlps(s.diff.SetPrec(0).SetPrec(wide).Sub(v, out), ue)
	var dist uint64
	if single {
		dist, _ = Dist32(uint32(natOut), math.Float32bits(s.float32Of(v)))
	} else {
		dist, _ = Dist64(natOut, math.Float64bits(s.float64Of(v, 0)))
	}
	class := SampleExact
	if dist > 0 {
		class = SampleDiverged
	} else if local > 0 {
		class = SampleRounded
	}
	return laneResult{class: class, sh: v, local: local, rel: rel, total: total, dist: dist}
}

// results evaluates one lane of an arithmetic or FMA op twice: from the
// native operand bits nat at wide precision (local, the near-exact
// result of the inputs the hardware saw, left in the scratch), and from
// the shadow operands sh in the prec-bit shadow number system (shadow,
// newly allocated). nat and sh are in source order (Rs1, Rs2, Rs3; the
// third is read only by FMA forms); a nil shadow means "equal to
// native", and when every shadow is nil the local result is rounded to
// prec. ok=false means a non-finite operand or an op with no finite
// shadow result.
//
// With shadow operands, a non-FMA op whose operands all fit in prec bits
// is evaluated directly at prec: rounding the wide result to prec would
// give the same value, because widePrec(prec) ≥ 2·prec+2 makes that
// double rounding innocuous (Figueroa). FMA keeps the wide round-to-odd
// tail (evalFMA), and prec 53 (24) keeps the binary64 (binary32)
// rounding of roundShadow, whose bounded exponent is not prec-bit
// arithmetic.
func (s *scratch) results(info *isa.OpInfo, single bool, nat [3]uint64, sh [3]*big.Float, wide, prec uint) (local, shadow *big.Float, ok bool) {
	fma := info.Class == isa.ClassFMA
	if !finiteIn(single, nat[0]) || !finiteIn(single, nat[1]) || (fma && !finiteIn(single, nat[2])) {
		return nil, nil, false
	}
	a := s.nat[0].SetPrec(0).SetFloat64(valueOf(single, nat[0]))
	b := s.nat[1].SetPrec(0).SetFloat64(valueOf(single, nat[1]))
	var c *big.Float
	if fma {
		c = s.nat[2].SetPrec(0).SetFloat64(valueOf(single, nat[2]))
	}
	local = s.local.SetPrec(0).SetPrec(wide)
	if !s.eval(local, info, a, b, c) {
		return nil, nil, false
	}
	if sh[0] == nil && sh[1] == nil && (!fma || sh[2] == nil) {
		shadow = s.roundShadow(local, single, prec)
	} else {
		a, b = coalesce(sh[0], a), coalesce(sh[1], b)
		if fma {
			c = coalesce(sh[2], c)
		}
		direct := !fma && prec != formatPrec(single) && a.MinPrec() <= prec && b.MinPrec() <= prec
		r := s.wide.SetPrec(0).SetPrec(wide)
		if direct {
			r = new(big.Float).SetPrec(prec)
		}
		if !s.eval(r, info, a, b, c) {
			return nil, nil, false
		}
		shadow = r
		if !direct {
			shadow = s.roundShadow(r, single, prec)
		}
	}
	if shadow.IsInf() {
		return nil, nil, false
	}
	return local, shadow, true
}

// eval evaluates an arithmetic or FMA op (by info's class) into z at
// z's precision.
func (s *scratch) eval(z *big.Float, info *isa.OpInfo, a, b, c *big.Float) bool {
	if info.Class == isa.ClassFMA {
		return s.evalFMA(z, info.FMA, a, b, c)
	}
	return evalArith(z, info.FP, a, b)
}

// evalArith evaluates a scalar arithmetic op over big.Float operands
// into z, rounded to z's precision. ok=false means the op has no finite
// shadow semantics for these operands (0/0, sqrt of a negative, or a
// stray non-finite operand); callers invalidate the destination lane
// instead.
//
// Min and Max reproduce the SSE forwarding rule the softfloat FPU
// implements: the second operand wins unless the first is strictly
// ordered before (after) it — which covers the equal-magnitude and
// min(+0,−0) cases, since big.Float Cmp treats the zeros as equal.
func evalArith(z *big.Float, fp isa.FPOp, a, b *big.Float) bool {
	if a.IsInf() || b.IsInf() {
		return false
	}
	switch fp {
	case isa.FPAdd:
		z.Add(a, b)
	case isa.FPSub:
		z.Sub(a, b)
	case isa.FPMul:
		z.Mul(a, b)
	case isa.FPDiv:
		if b.Sign() == 0 {
			// x/0 is ±Inf (comparable, handled by the caller's finite
			// check); 0/0 is NaN, which big.Float cannot represent.
			if a.Sign() == 0 {
				return false
			}
		}
		z.Quo(a, b)
	case isa.FPSqrt:
		if a.Signbit() && a.Sign() != 0 {
			return false
		}
		z.Sqrt(a)
	case isa.FPMin:
		if a.Cmp(b) < 0 {
			z.Set(a)
		} else {
			z.Set(b)
		}
	case isa.FPMax:
		if a.Cmp(b) > 0 {
			z.Set(a)
		} else {
			z.Set(b)
		}
	default:
		return false
	}
	return true
}

// evalFMA evaluates a fused multiply-add variant into z with a single
// rounding at z's precision: the product is formed exactly (the scratch
// precision covers the full double-width product of prec-bit operands),
// then the addend is applied with a round-to-odd tail addition.
// Round-to-nearest here would be the classic double-rounding trap: a
// tiny addend whose only job is to break a tie at the product gets
// absorbed by the intermediate rounding, and the final rounding then
// resolves the tie the wrong way. Round-to-odd keeps that sticky
// information — the odd result is never a rounding boundary of any
// format ≥ 2 bits narrower, so the downstream nearest-rounding lands
// exactly where the infinitely precise sum would.
func (s *scratch) evalFMA(z *big.Float, v isa.FMAVariant, a, b, c *big.Float) bool {
	if a.IsInf() || b.IsInf() || c.IsInf() {
		return false
	}
	prec := z.Prec()
	pp := a.Prec() + b.Prec() + 2
	if pp < prec {
		pp = prec
	}
	p := s.prod.SetPrec(0).SetPrec(pp).Mul(a, b)
	switch v {
	case isa.FMAdd, isa.FMSub:
	case isa.FNMAdd, isa.FNMSub:
		p.Neg(p)
	default:
		return false
	}
	z.SetMode(big.ToZero)
	if v == isa.FMSub || v == isa.FNMSub {
		z.Sub(p, c)
	} else {
		z.Add(p, c)
	}
	if z.Acc() != big.Exact && z.MinPrec() < prec {
		// Truncated with a last bit of 0: force it odd. The one-ulp
		// nudge toward the discarded tail is exact at prec bits.
		u := s.t.SetMantExp(one, z.MantExp(nil)-int(prec))
		if z.Signbit() {
			u.Neg(u)
		}
		z.SetMode(big.ToNearestEven).Add(z, u)
	}
	z.SetMode(big.ToNearestEven)
	return true
}

// Emulate64 is the evaluator's entry point for a trap-and-emulate
// mitigator (internal/adaptive): it executes one scalar binary64
// arithmetic, FMA or int64-to-binary64 conversion instruction in
// software. env is the guest's FP environment; nat and sh are the
// operands as for results, except that a conversion's nat[0] is its
// integer operand. It returns the result at prec bits, that result
// rounded to binary64 (the bits to write back), and the binary64 result
// of the native operands (what the hardware writes). ok=false means the
// caller must let the hardware execute the instruction: the form is not
// one of those, the environment is not the one the shadow semantics
// model (see cleanEnv), or the result is not finite.
func Emulate64(info *isa.OpInfo, env softfloat.Env, nat [3]uint64, sh [3]*big.Float, prec uint) (v *big.Float, bits, hw uint64, ok bool) {
	var s scratch
	var local *big.Float
	switch {
	case !cleanEnv(env):
	case info.Class == isa.ClassFPConvert && info.Cvt == isa.CvtSI2SDQ:
		local = s.local.SetPrec(0).SetInt64(int64(nat[0]))
		v, ok = s.roundShadow(local, false, prec), true
	case (info.Class == isa.ClassFPArith || info.Class == isa.ClassFMA) &&
		info.Prec == isa.F64 && info.Lanes == 1:
		local, v, ok = s.results(info, false, nat, sh, widePrec(prec), prec)
	}
	if !ok {
		return nil, 0, 0, false
	}
	return v, math.Float64bits(s.float64Of(v, 0)), math.Float64bits(s.float64Of(local, 0)), true
}

// cleanEnv reports whether an FP environment matches the shadow
// semantics: round-to-nearest-even, no FTZ, no DAZ. Ops retired under
// any other environment are not shadow-executed (their results would
// diverge for reasons that are not rounding error).
func cleanEnv(e softfloat.Env) bool {
	return e.RM == softfloat.RoundNearestEven && !e.FTZ && !e.DAZ
}

// roundShadow rounds a wide result into a newly allocated value of the
// shadow number system: exact binary64 (binary32, when single)
// semantics — bounded exponent, gradual underflow, overflow to Inf — at
// prec 53 (24), round-to-nearest at prec bits with an unbounded
// exponent otherwise.
func (s *scratch) roundShadow(r *big.Float, single bool, prec uint) *big.Float {
	switch {
	case !single && prec == 53:
		return new(big.Float).SetFloat64(s.float64Of(r, 0))
	case single && prec == 24:
		return new(big.Float).SetFloat64(float64(s.float32Of(r)))
	}
	return new(big.Float).SetPrec(prec).Set(r)
}

// formatPrec is the mantissa width of an op's native format.
func formatPrec(single bool) uint {
	if single {
		return 24
	}
	return 53
}

// finiteIn reports whether a native bit pattern (binary32 in the low
// half when single) is finite.
func finiteIn(single bool, b uint64) bool {
	if single {
		return finite32(uint32(b))
	}
	return finite64(b)
}

// valueOf converts a native bit pattern to its (exact) float64 value.
func valueOf(single bool, b uint64) float64 {
	if single {
		return float64(math.Float32frombits(uint32(b)))
	}
	return math.Float64frombits(b)
}

func coalesce(sh, nat *big.Float) *big.Float {
	if sh != nil {
		return sh
	}
	return nat
}

// float64Of returns x·2^scale rounded to the nearest binary64, exactly
// as new(big.Float).SetMantExp(x, scale).Float64() does. Inside
// binary64's normal range it rounds x to 53 bits in the scratch and
// assembles the result from that integer mantissa, allocating nothing.
// The range test is on the unrounded x: a value in the subnormal range
// has fewer than 53 significant bits there, so rounding it to 53 bits
// first would round it twice. Outside the normal range Float64 rounds
// it once.
func (s *scratch) float64Of(x *big.Float, scale int) float64 {
	if f, ok := s.roundNormal(x, scale, 53, -1021, 1023); ok {
		return f
	}
	if scale != 0 {
		x = new(big.Float).SetMantExp(x, scale)
	}
	f, _ := x.Float64()
	return f
}

// float32Of is float64Of for binary32, without the scale.
func (s *scratch) float32Of(x *big.Float) float32 {
	if f, ok := s.roundNormal(x, 0, 24, -125, 127); ok {
		return float32(f)
	}
	f, _ := x.Float32()
	return f
}

// roundNormal rounds x·2^scale to bits significant bits when x·2^scale
// = m·2^e (0.5 ≤ |m| < 1) has minExp ≤ e ≤ maxExp, the normal range of
// the target format; ok=false otherwise, and for zeros and infinities.
// The rounded value is then a normal float64, assembled from its
// integer mantissa.
func (s *scratch) roundNormal(x *big.Float, scale int, bits uint, minExp, maxExp int) (float64, bool) {
	if x.Sign() == 0 || x.IsInf() {
		return 0, false
	}
	if e := x.MantExp(nil) + scale; e < minExp || e > maxExp {
		return 0, false
	}
	t := s.t.SetMode(big.ToNearestEven).SetPrec(0).SetPrec(bits).Set(x)
	e := t.MantExp(nil) + scale
	m, _ := t.Abs(t).SetMantExp(t, int(bits)-t.MantExp(nil)).Uint64()
	f := uint64(e+1022)<<52 | m<<(53-bits)&(1<<52-1)
	if x.Signbit() {
		f |= 1 << 63
	}
	return math.Float64frombits(f), true
}

// fracUlps measures |diff| in units of 2^ulpExp, the ulp of the finite
// native result the difference is taken against (ulpExp64/ulpExp32). The
// result is exact 0 for a zero difference and ≤ 0.5 for any single
// correctly rounded operation.
func (s *scratch) fracUlps(diff *big.Float, ulpExp int) float64 {
	if diff.Sign() == 0 {
		return 0
	}
	return capUlps(s.float64Of(diff, -ulpExp))
}

// relErr returns |exact−native| / |exact| as a float64, 0 when the
// exact result is zero (the native result of an exactly-zero real is
// ±0, so there is no error to normalize). The quotient is taken at 53
// bits, which is the float64 result whenever it lands in binary64's
// normal range; diff/exact = m·2^(ed−ee) with 0.5 < |m| < 2 tells when
// it may not, and those quotients are taken wide and rounded once by
// Float64.
func (s *scratch) relErr(diff, exact *big.Float) float64 {
	if exact.Sign() == 0 || diff.Sign() == 0 {
		return 0
	}
	if e := diff.MantExp(nil) - exact.MantExp(nil); e >= -1021 && e <= 1022 {
		return capUlps(s.float64Of(s.q.SetPrec(0).SetPrec(53).Quo(diff, exact), 0))
	}
	f, _ := new(big.Float).Quo(diff, exact).Float64()
	return capUlps(f)
}

// capUlps takes the magnitude of an error sample, saturated at
// fracUlpCap.
func capUlps(f float64) float64 {
	f = math.Abs(f)
	if f > fracUlpCap {
		return fracUlpCap
	}
	return f
}
