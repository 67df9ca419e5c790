package roadnet

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFixed fails unless appendFixed formats x at every precision as
// strconv.AppendFloat(x, 'f', p, 64) does.
func checkFixed(t *testing.T, x float64, precs ...int) {
	t.Helper()
	var got, want []byte
	for _, p := range precs {
		got = appendFixed(got[:0], x, p)
		want = strconv.AppendFloat(want[:0], x, 'f', p, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFixed(%b, %d) = %q, strconv %q", x, p, got, want)
		}
	}
}

// TestAppendFixedMatchesStrconv: the fixed-point formatter is strconv's
// 'f' formatting at precisions 0, 3 and 6 on random bit patterns, on
// random magnitudes, on values half a unit in the last printed place
// from a %.3f or %.6f text and one float either side of them, on exact
// binary ties q/2^(p+1), and on the special values.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	rng := rand.New(rand.NewSource(1))
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1.5, 2.5, -0.5,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 1 << 53, 1 << 63, 1 << 64, 1<<64 - 2048, 18446744073709.551,
		18446744073709551.615, 1844674407370955.1615, 0.0005, 0.0015, 0.0000005, 1e-7, 2.5e9, 1e12} {
		checkFixed(t, x, 0, 1, 3, 6, 9, 15, 16, -1)
	}
	for i := 0; i < n; i++ {
		if i%4 == 0 { // mostly huge or tiny, and strconv is slow on them
			checkFixed(t, math.Float64frombits(rng.Uint64()), 0, 3, 6)
		}
		// Magnitudes of road networks and beyond: 1e-9 … 1e21.
		x := math.Pow(10, rng.Float64()*30-9) * float64(1-2*rng.Intn(2))
		checkFixed(t, x, 0, 3, 6)
		for _, p := range []int{3, 6} {
			// A printed value plus half a unit in its last place, and
			// the floats either side of it.
			unit := 1 / float64(pow10u[p])
			v := (float64(rng.Int63n(1<<40)) + 0.5) * unit
			checkFixed(t, v, p)
			checkFixed(t, math.Nextafter(v, 0), p)
			checkFixed(t, math.Nextafter(v, math.Inf(1)), p)
		}
	}
	for _, p := range []int{0, 3, 6} {
		den := math.Ldexp(1, p+1)
		for q := int64(-4001); q <= 4001; q += 2 {
			checkFixed(t, float64(q)/den, p)
			checkFixed(t, float64(q<<30)/den, p)
		}
	}
}

// TestParseFloatMatchesStrconv: parseFloat and parseInt answer as
// strconv.ParseFloat and strconv.Atoi do — value bits, or an error of
// the same text — on %.3f and %.6f texts of random values, on random
// digit strings in and beyond the fast path's domain, and on forms
// only strconv reads.
func TestParseFloatMatchesStrconv(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	check := func(s string) {
		t.Helper()
		got, gerr := parseFloat([]byte(s))
		want, werr := strconv.ParseFloat(s, 64)
		if math.Float64bits(got) != math.Float64bits(want) || (gerr == nil) != (werr == nil) ||
			gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv %v, %v", s, got, gerr, want, werr)
		}
		gi, gerr := parseInt([]byte(s))
		wi, werr := strconv.Atoi(s)
		if gi != wi || (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("parseInt(%q) = %v, %v; strconv %v, %v", s, gi, gerr, wi, werr)
		}
	}
	for _, s := range []string{"", "-", ".", "-.", "0", "-0", "-0.000", "007", "1.", ".5", "-.5", "+1", "+1.5",
		"1e3", "1E-3", "0x1p-2", "inf", "-Inf", "NaN", "1_000", " 1", "1 ", "1..2", "1.2.3", "--1",
		"9007199254740991", "9007199254740992", "9007199254740993", "90071992547409.93",
		"123456789012345678", "1234567890123456789", "12345678901234567890", "99999999999999999999",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"0.0000000000000000000001", "0.00000000000000000000001", "4294967296", "-2147483649"} {
		check(s)
	}
	rng := rand.New(rand.NewSource(2))
	var buf []byte
	for i := 0; i < n; i++ {
		x := math.Pow(10, rng.Float64()*24-9) * float64(1-2*rng.Intn(2))
		check(string(strconv.AppendFloat(buf[:0], x, 'f', 3, 64)))
		check(string(strconv.AppendFloat(buf[:0], x, 'f', 6, 64)))
		// Random digits with a random point: up to 24 digits, so the
		// 19-digit, 2^53 and 10^22 limits are all crossed.
		buf = buf[:0]
		if rng.Intn(2) == 0 {
			buf = append(buf, '-')
		}
		nd := 1 + rng.Intn(24)
		pt := rng.Intn(nd + 1)
		for d := 0; d < nd; d++ {
			if d == pt && d > 0 {
				buf = append(buf, '.')
			}
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		check(string(buf))
	}
}
