package wire

import (
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// numberRef is cursor.number's specification: skip JSON whitespace,
// bound the token at the first numberEnd byte and parse it with
// strconv.ParseFloat. It returns the value, the offset just past the
// token and whether strconv accepted it.
func numberRef(in []byte) (float64, int, bool) {
	p := cursor{b: in}
	p.skip()
	end := p.i
	for end < len(in) && !numberEnd[in[end]] {
		end++
	}
	if end == p.i {
		return 0, end, false
	}
	v, err := strconv.ParseFloat(string(in[p.i:end]), 64)
	return v, end, err == nil
}

// checkNumber requires cursor.number to agree with numberRef on in:
// in the bits of the value, in whether it errs and in bytes consumed.
func checkNumber(t *testing.T, in []byte) {
	t.Helper()
	p := cursor{b: in, what: "line"}
	got, err := p.number()
	want, end, ok := numberRef(in)
	if (err == nil) != ok {
		t.Fatalf("%q: err = %v, strconv accepts = %v", in, err, ok)
	}
	if err != nil {
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%q: error %v does not wrap ErrFormat", in, err)
		}
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) || p.i != end {
		t.Fatalf("%q: got %v (%#016x) ending at %d, strconv %v (%#016x) ending at %d",
			in, got, math.Float64bits(got), p.i, want, math.Float64bits(want), end)
	}
}

// FuzzNumber: for any input, cursor.number agrees with strconv on the
// numberEnd-bounded token, whether or not the fast path takes it.
func FuzzNumber(f *testing.F) {
	for _, s := range []string{
		"-0", "0.0", "1.", ".5", "+1", "1e", "1e+", "0x1p-2", "Inf", "NaN", "1_0",
		"-", ".", "-.e1", "1.e5", "007", "0e99999999999999999999", " \t1.5,",
		"1234567890123456789", "12345678901234567890", // 19 and 20 digits
		"0.00001234567890123456789", "9999999999999999999e-5", "99999999999999999999e-5",
		"9007199254740993", "2.2250738585072014e-308", "4.9e-324", "1.7976931348623157e308", "1e23",
		"1e-64", "1e-65", "12345678901234567e-64", "12345678901234567e-65",
		"1e38", "1e39", "12345e38", "12345e39", "1e37", "123e37",
		"1.2345678901234567e-7", "-9.81}", "1e5x", "12345678.12345678]",
	} {
		f.Add([]byte(s))
	}
	// strconv stops accumulating an exponent at five digits, so this
	// reads as 0.1, not as an overflow; fastNumber must read it so too.
	f.Add([]byte("0." + strings.Repeat("0", 10000) + "1e100000"))
	f.Fuzz(func(t *testing.T, in []byte) { checkNumber(t, in) })
}

// TestNumberMatchesParseFloat checks cursor.number against strconv on
// seeded values, every bit pattern and normal readings at four scales,
// written the ways encoders write them: strconv's 'g', 'e', 'f' and 'E'
// formats, shortest and at 17 digits, and json.Marshal. Readings at the
// IMU scales (1e-7 to 10) must also take the fast path in the shortest
// forms, the ones encoders write, except 'f', which can exceed 19
// digits. At 1e12 an exactly representable 17-digit value with a
// fraction is a rounding Eisel–Lemire cannot decide, so it may fall
// back.
func TestNumberMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	type value struct {
		v    float64
		fast bool
	}
	var vals []value
	for i := 0; i < 4000; i++ {
		vals = append(vals, value{math.Float64frombits(rng.Uint64()), false})
	}
	for _, scale := range []float64{1e-7, 1, 10, 1e12} {
		for i := 0; i < 4000; i++ {
			vals = append(vals, value{scale * rng.NormFloat64(), scale < 1e12})
		}
	}
	fellBack := func(s []byte) bool {
		_, n, ok := fastNumber(s)
		return !ok || n != len(s)
	}
	var buf []byte
	for _, v := range vals {
		for _, format := range []byte{'g', 'e', 'f', 'E'} {
			for _, prec := range []int{-1, 17} {
				buf = strconv.AppendFloat(buf[:0], v.v, format, prec, 64)
				checkNumber(t, buf)
				if v.fast && prec < 0 && format != 'f' && fellBack(buf) {
					t.Fatalf("%q fell back to strconv", buf)
				}
				checkNumber(t, append(buf, ','))
			}
		}
		if js, err := json.Marshal(v.v); err == nil {
			checkNumber(t, js)
			if v.fast && fellBack(js) {
				t.Fatalf("%s fell back to strconv", js)
			}
		}
	}
}

// TestPow10Table rebuilds every row of pow10Mant with math/big: 10^q
// scaled by a power of two into [2^127, 2^128) and rounded down.
func TestPow10Table(t *testing.T) {
	for k, row := range pow10Mant {
		q := pow10Min + k
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		m := new(big.Int)
		switch shift := p.BitLen() - 128; {
		case q < 0:
			m.Quo(m.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		case shift > 0:
			m.Rsh(p, uint(shift))
		default:
			m.Lsh(p, uint(-shift))
		}
		low := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64))
		want := [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), low.Uint64()}
		if m.BitLen() != 128 || row != want {
			t.Errorf("1e%d: row {%#016x, %#016x}, want {%#016x, %#016x}", q, row[0], row[1], want[0], want[1])
		}
	}
	if got := pow10Min + len(pow10Mant) - 1; got != 38 {
		t.Errorf("table ends at 1e%d, want 1e38", got)
	}
}

// TestNumberErrorsUnchanged pins that a token the fast path refuses
// keeps strconv's verdict and the cursor's error text.
func TestNumberErrorsUnchanged(t *testing.T) {
	for _, in := range []string{"1e", "1__0", "-", "1e5x", "0x", strings.Repeat("9", 400)} {
		p := cursor{b: []byte(in), what: "line"}
		_, err := p.number()
		want := `wire: malformed sample stream: line offset 0: bad number "` + in + `"`
		if err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %s", in, err, want)
		}
	}
}
