package roadnet

import (
	"math"
	"math/bits"
	"strconv"
)

// The road section's numbers go through the two kernels below instead
// of strconv's general paths. Both are exact, so the text and the
// floats are the ones strconv produces, bit for bit; anything outside
// their domain is handed to strconv itself.

// pow10u[p] is 10^p as an integer, pow10f[p] as a float64; every
// float64 entry up to 10^22 is exact.
var (
	pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
	pow10f = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
)

// maxFixedPrec is the largest precision appendFixed formats itself.
const maxFixedPrec = 15

// appendFixed appends x as strconv.AppendFloat(dst, x, 'f', prec, 64)
// does. With an explicit precision strconv always converts through its
// big-decimal path; this computes the same digits from the float's
// exact value m·2^e: the 128-bit product m·10^prec, shifted right by
// -e and rounded half to even, is the integer x·10^prec rounds to. It
// falls back to strconv when that integer does not fit 64 bits (|x| ≥
// 2^64/10^prec), for Inf and NaN, and for prec outside [0, 15].
func appendFixed(dst []byte, x float64, prec int) []byte {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7ff
	if exp == 0x7ff || prec < 0 || prec > maxFixedPrec {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	m := b & (1<<52 - 1)
	e := -1074
	if exp != 0 {
		m |= 1 << 52
		e = exp - 1075
	}
	hi, lo := bits.Mul64(m, pow10u[prec])
	var n uint64
	switch s := uint(-e); {
	case e >= 0:
		if hi != 0 || e >= 64 || lo>>(64-uint(e)) != 0 {
			return strconv.AppendFloat(dst, x, 'f', prec, 64)
		}
		n = lo << uint(e)
	case s >= 128: // the product is below 2^117, so below half of 2^s
	default:
		// n = ⌊P / 2^s⌋ with remainder r, compared with half = 2^(s-1).
		var rHi, rLo, hHi, hLo uint64
		if s < 64 {
			if hi>>s != 0 {
				return strconv.AppendFloat(dst, x, 'f', prec, 64)
			}
			n = lo>>s | hi<<(64-s)
			rLo, hLo = lo&(1<<s-1), 1<<(s-1)
		} else {
			n = hi >> (s - 64)
			rHi, rLo = hi&(1<<(s-64)-1), lo
			if s == 64 {
				hLo = 1 << 63
			} else {
				hHi = 1 << (s - 65)
			}
		}
		if rHi > hHi || rHi == hHi && (rLo > hLo || rLo == hLo && n&1 == 1) {
			if n == math.MaxUint64 {
				return strconv.AppendFloat(dst, x, 'f', prec, 64)
			}
			n++
		}
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	p := pow10u[prec]
	dst = strconv.AppendUint(dst, n/p, 10)
	if prec == 0 {
		return dst
	}
	var frac [maxFixedPrec + 1]byte
	frac[0] = '.'
	for i, f := prec, n%p; i > 0; i, f = i-1, f/10 {
		frac[i] = byte('0' + f%10)
	}
	return append(dst, frac[:prec+1]...)
}

// parseFloat parses s as strconv.ParseFloat(string(s), 64) does. Text
// of the form [-]digits[.digits] whose digits make an integer below
// 2^53 with at most 22 after the point is that integer divided by an
// exact power of ten — Clinger's exact fast path, the one strconv
// itself takes for it — so one correctly rounded division gives
// strconv's float. Everything else, errors included, is strconv's.
func parseFloat(s []byte) (float64, error) {
	if f, ok := fastFloat(s); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(s), 64)
}

func fastFloat(s []byte) (float64, bool) {
	i, neg := 0, len(s) > 0 && s[0] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits, frac := 0, -1 // frac counts digits after the point, -1 before it
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			if digits++; digits > 19 {
				return 0, false
			}
			mant = mant*10 + uint64(c-'0')
			if frac >= 0 {
				frac++
			}
		case c == '.' && frac < 0 && digits > 0:
			frac = 0
		default:
			return 0, false
		}
	}
	if digits == 0 || frac == 0 || frac >= len(pow10f) || mant >= 1<<53 {
		return 0, false
	}
	f := float64(mant)
	if frac > 0 {
		f /= pow10f[frac]
	}
	if neg {
		f = -f
	}
	return f, true
}

// parseInt parses s as strconv.Atoi(string(s)) does: [-]digits of at
// most 18 digits directly, everything else through strconv.
func parseInt(s []byte) (int, error) {
	i, neg := 0, len(s) > 0 && s[0] == '-'
	if neg {
		i++
	}
	if n := len(s) - i; n > 0 && n <= 18 {
		v := 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			v = v*10 + int(s[i]-'0')
		}
		if i == len(s) {
			if neg {
				v = -v
			}
			return v, nil
		}
	}
	return strconv.Atoi(string(s))
}
