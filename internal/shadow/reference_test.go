package shadow

import (
	"math"
	"math/big"

	"repro/internal/isa"
	"repro/internal/softfloat"
)

// The allocate-per-op evaluator that the scratch evaluator replaced,
// kept as the reference TestShadowEvalMatchesReference holds the
// production path to, bit for bit: every intermediate is a fresh
// big.Float read with Float64/Float32, shadow results are always
// computed at the wide precision and then rounded to prec, and relErr
// divides at the wide precision.

func bigOf64(bits uint64) *big.Float {
	return new(big.Float).SetFloat64(math.Float64frombits(bits))
}

func bigOf32(bits uint32) *big.Float {
	return new(big.Float).SetFloat64(float64(math.Float32frombits(bits)))
}

func refEvalArith(fp isa.FPOp, a, b *big.Float, prec uint) (*big.Float, bool) {
	if a.IsInf() || b.IsInf() {
		return nil, false
	}
	z := new(big.Float).SetPrec(prec)
	switch fp {
	case isa.FPAdd:
		z.Add(a, b)
	case isa.FPSub:
		z.Sub(a, b)
	case isa.FPMul:
		z.Mul(a, b)
	case isa.FPDiv:
		if b.Sign() == 0 && a.Sign() == 0 {
			return nil, false
		}
		z.Quo(a, b)
	case isa.FPSqrt:
		if a.Signbit() && a.Sign() != 0 {
			return nil, false
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
		return nil, false
	}
	return z, true
}

func refEvalFMA(v isa.FMAVariant, a, b, c *big.Float, prec uint) (*big.Float, bool) {
	if a.IsInf() || b.IsInf() || c.IsInf() {
		return nil, false
	}
	pp := a.Prec() + b.Prec() + 2
	if pp < prec {
		pp = prec
	}
	p := new(big.Float).SetPrec(pp).Mul(a, b)
	switch v {
	case isa.FMAdd, isa.FMSub:
	case isa.FNMAdd, isa.FNMSub:
		p.Neg(p)
	default:
		return nil, false
	}
	neg := v == isa.FMSub || v == isa.FNMSub
	z := new(big.Float).SetPrec(prec).SetMode(big.ToZero)
	if neg {
		z.Sub(p, c)
	} else {
		z.Add(p, c)
	}
	if z.Acc() != big.Exact && z.MinPrec() < prec {
		u := new(big.Float).SetMantExp(big.NewFloat(1), z.MantExp(nil)-int(prec))
		if z.Signbit() {
			u.Neg(u)
		}
		z.SetMode(big.ToNearestEven).Add(z, u)
	}
	z.SetMode(big.ToNearestEven)
	return z, true
}

func refEval(info *isa.OpInfo, a, b, c *big.Float, prec uint) (*big.Float, bool) {
	if info.Class == isa.ClassFMA {
		return refEvalFMA(info.FMA, a, b, c, prec)
	}
	return refEvalArith(info.FP, a, b, prec)
}

func refEval64(info *isa.OpInfo, nat [3]uint64, sh [3]*big.Float, wide, prec uint) (local, shadow *big.Float, ok bool) {
	fma := info.Class == isa.ClassFMA
	if !finite64(nat[0]) || !finite64(nat[1]) || (fma && !finite64(nat[2])) {
		return nil, nil, false
	}
	a, b := bigOf64(nat[0]), bigOf64(nat[1])
	var c *big.Float
	if fma {
		c = bigOf64(nat[2])
	}
	if local, ok = refEval(info, a, b, c, wide); !ok {
		return nil, nil, false
	}
	r := local
	if sh[0] != nil || sh[1] != nil || (fma && sh[2] != nil) {
		if r, ok = refEval(info, coalesce(sh[0], a), coalesce(sh[1], b), coalesce(sh[2], c), wide); !ok {
			return nil, nil, false
		}
	}
	if shadow = refRoundShadow64(r, prec); shadow.IsInf() {
		return nil, nil, false
	}
	return local, shadow, true
}

func refEmulate64(info *isa.OpInfo, env softfloat.Env, nat [3]uint64, sh [3]*big.Float, prec uint) (v *big.Float, bits, hw uint64, ok bool) {
	var local *big.Float
	switch {
	case !cleanEnv(env):
	case info.Class == isa.ClassFPConvert && info.Cvt == isa.CvtSI2SDQ:
		local = new(big.Float).SetInt64(int64(nat[0]))
		v, ok = refRoundShadow64(local, prec), true
	case (info.Class == isa.ClassFPArith || info.Class == isa.ClassFMA) &&
		info.Prec == isa.F64 && info.Lanes == 1:
		local, v, ok = refEval64(info, nat, sh, widePrec(prec), prec)
	}
	if !ok {
		return nil, 0, 0, false
	}
	return v, refNativeBits64(v), refNativeBits64(local), true
}

func refRoundShadow64(r *big.Float, prec uint) *big.Float {
	if prec == 53 {
		f, _ := r.Float64()
		return new(big.Float).SetFloat64(f)
	}
	return new(big.Float).SetPrec(prec).Set(r)
}

func refRoundShadow32(r *big.Float, prec uint) *big.Float {
	if prec == 24 {
		f, _ := r.Float32()
		return new(big.Float).SetFloat64(float64(f))
	}
	return new(big.Float).SetPrec(prec).Set(r)
}

func refNativeBits64(v *big.Float) uint64 {
	f, _ := v.Float64()
	return math.Float64bits(f)
}

func refNativeBits32(v *big.Float) uint32 {
	f, _ := v.Float32()
	return math.Float32bits(f)
}

func refFracUlps64(diff *big.Float, out uint64) float64 {
	if diff.Sign() == 0 {
		return 0
	}
	f, _ := new(big.Float).SetMantExp(diff, -ulpExp64(out)).Float64()
	return capUlps(f)
}

func refFracUlps32(diff *big.Float, out uint32) float64 {
	if diff.Sign() == 0 {
		return 0
	}
	f, _ := new(big.Float).SetMantExp(diff, -ulpExp32(out)).Float64()
	return capUlps(f)
}

func refRelErr(diff, exact *big.Float) float64 {
	if exact.Sign() == 0 || diff.Sign() == 0 {
		return 0
	}
	f, _ := new(big.Float).Quo(diff, exact).Float64()
	return capUlps(f)
}

func refLane64(info *isa.OpInfo, nat [3]uint64, sh [3]*big.Float, natOut uint64, wide, prec uint) laneResult {
	if !finite64(natOut) {
		return laneResult{class: SampleNonFinite}
	}
	rLocal, v, ok := refEval64(info, nat, sh, wide, prec)
	if !ok {
		return laneResult{class: SampleNonFinite}
	}
	outB := bigOf64(natOut)
	diff := new(big.Float).SetPrec(wide).Sub(rLocal, outB)
	local := refFracUlps64(diff, natOut)
	rel := refRelErr(diff, rLocal)
	total := refFracUlps64(new(big.Float).SetPrec(wide).Sub(v, outB), natOut)
	dist, _ := Dist64(natOut, refNativeBits64(v))
	return refClassify(v, local, rel, total, dist)
}

func refLane32(info *isa.OpInfo, nat [3]uint32, sh [3]*big.Float, natOut uint32, wide, prec uint) laneResult {
	fma := info.Class == isa.ClassFMA
	if !finite32(nat[0]) || !finite32(nat[1]) || (fma && !finite32(nat[2])) || !finite32(natOut) {
		return laneResult{class: SampleNonFinite}
	}
	aN, bN := bigOf32(nat[0]), bigOf32(nat[1])
	var cN *big.Float
	if fma {
		cN = bigOf32(nat[2])
	}
	rLocal, ok := refEval(info, aN, bN, cN, wide)
	if !ok {
		return laneResult{class: SampleNonFinite}
	}
	outB := bigOf32(natOut)
	diff := new(big.Float).SetPrec(wide).Sub(rLocal, outB)
	local := refFracUlps32(diff, natOut)
	rel := refRelErr(diff, rLocal)
	rShadow := rLocal
	if sh[0] != nil || sh[1] != nil || (fma && sh[2] != nil) {
		rShadow, ok = refEval(info, coalesce(sh[0], aN), coalesce(sh[1], bN), coalesce(sh[2], cN), wide)
		if !ok {
			return laneResult{class: SampleNonFinite}
		}
	}
	v := refRoundShadow32(rShadow, prec)
	if v.IsInf() {
		return laneResult{class: SampleNonFinite}
	}
	total := refFracUlps32(new(big.Float).SetPrec(wide).Sub(v, outB), natOut)
	dist, _ := Dist32(natOut, refNativeBits32(v))
	return refClassify(v, local, rel, total, dist)
}

func refClassify(v *big.Float, local, rel, total float64, dist uint64) laneResult {
	class := SampleExact
	if dist > 0 {
		class = SampleDiverged
	} else if local > 0 {
		class = SampleRounded
	}
	return laneResult{class: class, sh: v, local: local, rel: rel, total: total, dist: dist}
}
