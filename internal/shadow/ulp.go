package shadow

// ULP distance on the monotone integer lattice of floating point bit
// patterns. Policy (defined everywhere, unlike a relative error, which is
// undefined at 0.0 and at non-finite values):
//
//   - Finite values, including denormals, sit on an ordinal line where
//     adjacent representable values are distance 1 apart. The line is
//     magnitude-symmetric: negative values are the mirrored ordinals.
//   - +0 and −0 are the *same* point (distance 0, and distance 1 to the
//     smallest denormal of either sign).
//   - ±Inf sit on the line one step beyond ±MaxFinite, so Inf−Inf style
//     divergences are huge but finite and comparable.
//   - Two NaNs are distance 0 (both sides agree the result is
//     undefined); exactly one NaN is incomparable — the distance is
//     meaningless, and callers count rather than accumulate it.

const (
	sign64 = uint64(1) << 63
	sign32 = uint32(1) << 31
)

func isNaN64(b uint64) bool {
	return b&^sign64 > 0x7FF0000000000000
}

func isNaN32(b uint32) bool {
	return b&^sign32 > 0x7F800000
}

func finite64(b uint64) bool { return b&^sign64 < 0x7FF0000000000000 }

func finite32(b uint32) bool { return b&^sign32 < 0x7F800000 }

// ord64 maps a non-NaN binary64 pattern onto the ordinal line,
// collapsing the two zeros onto one point.
func ord64(b uint64) uint64 {
	mag := b &^ sign64
	if b&sign64 != 0 {
		return sign64 - mag
	}
	return sign64 + mag
}

func ord32(b uint32) uint32 {
	mag := b &^ sign32
	if b&sign32 != 0 {
		return sign32 - mag
	}
	return sign32 + mag
}

// Dist64 returns the integer ULP distance between two binary64 bit
// patterns under the policy above. ok is false when exactly one side is
// NaN (incomparable); both-NaN is (0, true).
func Dist64(a, b uint64) (uint64, bool) {
	an, bn := isNaN64(a), isNaN64(b)
	if an || bn {
		return 0, an == bn
	}
	oa, ob := ord64(a), ord64(b)
	if oa < ob {
		return ob - oa, true
	}
	return oa - ob, true
}

// Dist32 is Dist64 for binary32 patterns.
func Dist32(a, b uint32) (uint64, bool) {
	an, bn := isNaN32(a), isNaN32(b)
	if an || bn {
		return 0, an == bn
	}
	oa, ob := ord32(a), ord32(b)
	if oa < ob {
		return uint64(ob - oa), true
	}
	return uint64(oa - ob), true
}

// ulpExp64 returns e such that ulp(x) = 2^e for the finite binary64
// pattern b: the quantum of the denormal range for zeros and denormals,
// the regular spacing otherwise.
func ulpExp64(b uint64) int {
	e := int(b >> 52 & 0x7FF)
	if e == 0 {
		return -1074
	}
	return e - 1075
}

func ulpExp32(b uint32) int {
	e := int(b >> 23 & 0xFF)
	if e == 0 {
		return -149
	}
	return e - 150
}

// fracUlpCap bounds a single fractional-ULP or relative error sample so
// a pathological divergence (denormal native vs astronomically drifted
// shadow) cannot poison a site's running sums with Inf.
const fracUlpCap = 1e18
