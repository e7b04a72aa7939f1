package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// fastNumber converts the plain decimal that s starts with — an
// optional '-', digits with an optional fraction and an optional e/E
// exponent — and returns its value and length. It takes at most 19
// significant digits (leading zeros not counted) and tries strconv's
// exact-float64 rule, then Eisel–Lemire (Lemire, "Number Parsing at a
// Gigabyte per Second", SPE 2021), the algorithm strconv.ParseFloat
// runs internally, so the value has exactly ParseFloat's bits for
// s[:n]. It reports false for anything else — a '+', hex, NaN or Inf,
// more digits, an exponent outside pow10Mant, a rounding the algorithm
// cannot decide, or no digits — and the caller parses with strconv;
// whether s[:n] is the whole token is the caller's question too.
func fastNumber(s []byte) (f float64, n int, ok bool) {
	i := 0
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(s) && s[i] == '0' {
		i++
	}
	j, man := appendDigits(s, i, 0)
	nd := j - i // significant digits
	seen := j > start
	i = j
	exp := 0
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		if man == 0 {
			for i < len(s) && s[i] == '0' {
				i++
			}
		}
		j, man = appendDigits(s, i, man)
		nd += j - i
		exp = frac - j
		seen = seen || j > frac
		i = j
	}
	if !seen || nd > 19 {
		return 0, 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		esign := 1
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			if s[i] == '-' {
				esign = -1
			}
			i++
		}
		e, digits := 0, i
		for ; i < len(s) && s[i]-'0' < 10; i++ {
			if e < 10000 {
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == digits {
			return 0, 0, false
		}
		exp += esign * e
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), i, true
		}
		return 0, i, true
	}
	if f, ok = exactFloat(man, exp, neg); !ok {
		f, ok = eiselLemire(man, exp, neg)
	}
	return f, i, ok
}

// appendDigits accumulates the decimal digits of s from i onto man,
// eight at a time while eight remain, and returns the index of the
// first non-digit. man wraps past 19 digits; callers refuse those.
func appendDigits(s []byte, i int, man uint64) (int, uint64) {
	for ; len(s)-i >= 8; i += 8 {
		v := binary.LittleEndian.Uint64(s[i:])
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + eightDigitsValue(v)
	}
	for ; i < len(s) && s[i]-'0' < 10; i++ {
		man = man*10 + uint64(s[i]-'0')
	}
	return i, man
}

// eightDigits reports whether all eight bytes of v, loaded little
// endian, are ASCII digits: each byte's high nibble must read 3 both as
// is and after adding 6. A carry out of one byte happens only from a
// byte that already fails.
func eightDigits(v uint64) bool {
	return v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 == 0x3333333333333333
}

// eightDigitsValue is the value of eight ASCII digits loaded little
// endian (first digit in the low byte), combined in three multiplies:
// digit pairs, then groups of four, then all eight.
func eightDigitsValue(v uint64) uint64 {
	v = (v & 0x0F0F0F0F0F0F0F0F) * (1 + 10<<8) >> 8
	v = (v & 0x00FF00FF00FF00FF) * (1 + 100<<16) >> 16
	return (v & 0x0000FFFF0000FFFF) * (1 + 10000<<32) >> 32
}

// exactFloat is strconv's exact conversion: a mantissa below 2^53 and a
// power of ten up to 10^22 are both exact float64s, so one correctly
// rounded multiply or divide gives the nearest float. Up to 15 more
// powers of ten move into the mantissa while it stays at most 10^15.
func exactFloat(man uint64, exp int, neg bool) (float64, bool) {
	if man>>53 != 0 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	case exp > 0 && exp <= 22+15:
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * float64pow10[exp], true
	}
	return 0, false
}

var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire returns the float64 nearest to man×10^exp (man > 0) and
// true, or false when exp lies outside pow10Mant, the result is
// subnormal or overflows, or the 128-bit product cannot decide the
// rounding.
func eiselLemire(man uint64, exp int, neg bool) (float64, bool) {
	if exp < pow10Min || exp >= pow10Min+len(pow10Mant) {
		return 0, false
	}
	pow := &pow10Mant[exp-pow10Min]
	lz := bits.LeadingZeros64(man)
	man <<= lz
	// Biased binary exponent of the product's top bit; 217706/2^16
	// approximates log2(10) closely enough for every table exponent.
	exp2 := uint64(217706*exp>>16+64+1023) - uint64(lz)
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The power's truncated low word may carry into the kept
		// bits: add its product too.
		hi2, lo2 := bits.Mul64(man, pow[1])
		wideHi, wideLo := hi, lo+hi2
		if wideLo < lo {
			wideHi++
		}
		if wideHi&0x1FF == 0x1FF && wideLo+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = wideHi, wideLo
	}
	// Keep 54 bits: the 53 of the result and one to round with.
	top := hi >> 63
	m := hi >> (top + 9)
	exp2 -= 1 ^ top
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // maybe exactly halfway: strconv decides
	}
	m += m & 1
	m >>= 1
	if m>>53 != 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, or beyond the largest float64
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// pow10Min is the exponent of pow10Mant's first row. The table covers
// 10^-64…10^38, the range an IMU stream's values take at full
// precision; other exponents fall back to strconv.
const pow10Min = -64

// pow10Mant holds 10^q for q from pow10Min as a 128-bit mantissa
// {high, low}, rounded down and scaled so its top bit is set; the
// binary exponent follows from q (see eiselLemire). TestPow10Table
// rebuilds every row with math/big.
var pow10Mant = [...][2]uint64{
	{0xA87FEA27A539E9A5, 0x3F2398D747B36224}, // 1e-64
	{0xD29FE4B18E88640E, 0x8EEC7F0D19A03AAD}, // 1e-63
	{0x83A3EEEEF9153E89, 0x1953CF68300424AC}, // 1e-62
	{0xA48CEAAAB75A8E2B, 0x5FA8C3423C052DD7}, // 1e-61
	{0xCDB02555653131B6, 0x3792F412CB06794D}, // 1e-60
	{0x808E17555F3EBF11, 0xE2BBD88BBEE40BD0}, // 1e-59
	{0xA0B19D2AB70E6ED6, 0x5B6ACEAEAE9D0EC4}, // 1e-58
	{0xC8DE047564D20A8B, 0xF245825A5A445275}, // 1e-57
	{0xFB158592BE068D2E, 0xEED6E2F0F0D56712}, // 1e-56
	{0x9CED737BB6C4183D, 0x55464DD69685606B}, // 1e-55
	{0xC428D05AA4751E4C, 0xAA97E14C3C26B886}, // 1e-54
	{0xF53304714D9265DF, 0xD53DD99F4B3066A8}, // 1e-53
	{0x993FE2C6D07B7FAB, 0xE546A8038EFE4029}, // 1e-52
	{0xBF8FDB78849A5F96, 0xDE98520472BDD033}, // 1e-51
	{0xEF73D256A5C0F77C, 0x963E66858F6D4440}, // 1e-50
	{0x95A8637627989AAD, 0xDDE7001379A44AA8}, // 1e-49
	{0xBB127C53B17EC159, 0x5560C018580D5D52}, // 1e-48
	{0xE9D71B689DDE71AF, 0xAAB8F01E6E10B4A6}, // 1e-47
	{0x9226712162AB070D, 0xCAB3961304CA70E8}, // 1e-46
	{0xB6B00D69BB55C8D1, 0x3D607B97C5FD0D22}, // 1e-45
	{0xE45C10C42A2B3B05, 0x8CB89A7DB77C506A}, // 1e-44
	{0x8EB98A7A9A5B04E3, 0x77F3608E92ADB242}, // 1e-43
	{0xB267ED1940F1C61C, 0x55F038B237591ED3}, // 1e-42
	{0xDF01E85F912E37A3, 0x6B6C46DEC52F6688}, // 1e-41
	{0x8B61313BBABCE2C6, 0x2323AC4B3B3DA015}, // 1e-40
	{0xAE397D8AA96C1B77, 0xABEC975E0A0D081A}, // 1e-39
	{0xD9C7DCED53C72255, 0x96E7BD358C904A21}, // 1e-38
	{0x881CEA14545C7575, 0x7E50D64177DA2E54}, // 1e-37
	{0xAA242499697392D2, 0xDDE50BD1D5D0B9E9}, // 1e-36
	{0xD4AD2DBFC3D07787, 0x955E4EC64B44E864}, // 1e-35
	{0x84EC3C97DA624AB4, 0xBD5AF13BEF0B113E}, // 1e-34
	{0xA6274BBDD0FADD61, 0xECB1AD8AEACDD58E}, // 1e-33
	{0xCFB11EAD453994BA, 0x67DE18EDA5814AF2}, // 1e-32
	{0x81CEB32C4B43FCF4, 0x80EACF948770CED7}, // 1e-31
	{0xA2425FF75E14FC31, 0xA1258379A94D028D}, // 1e-30
	{0xCAD2F7F5359A3B3E, 0x096EE45813A04330}, // 1e-29
	{0xFD87B5F28300CA0D, 0x8BCA9D6E188853FC}, // 1e-28
	{0x9E74D1B791E07E48, 0x775EA264CF55347D}, // 1e-27
	{0xC612062576589DDA, 0x95364AFE032A819D}, // 1e-26
	{0xF79687AED3EEC551, 0x3A83DDBD83F52204}, // 1e-25
	{0x9ABE14CD44753B52, 0xC4926A9672793542}, // 1e-24
	{0xC16D9A0095928A27, 0x75B7053C0F178293}, // 1e-23
	{0xF1C90080BAF72CB1, 0x5324C68B12DD6338}, // 1e-22
	{0x971DA05074DA7BEE, 0xD3F6FC16EBCA5E03}, // 1e-21
	{0xBCE5086492111AEA, 0x88F4BB1CA6BCF584}, // 1e-20
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5}, // 1e-19
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF}, // 1e-18
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2}, // 1e-17
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3}, // 1e-16
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10}, // 1e-15
	{0xB424DC35095CD80F, 0x538484C19EF38C94}, // 1e-14
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9}, // 1e-13
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3}, // 1e-12
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748}, // 1e-11
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B}, // 1e-10
	{0x89705F4136B4A597, 0x31680A88F8953030}, // 1e-9
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D}, // 1e-8
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C}, // 1e-7
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F}, // 1e-6
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53}, // 1e-5
	{0xD1B71758E219652B, 0xD3C36113404EA4A8}, // 1e-4
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9}, // 1e-3
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x8000000000000000, 0x0000000000000000}, // 1e0
	{0xA000000000000000, 0x0000000000000000}, // 1e1
	{0xC800000000000000, 0x0000000000000000}, // 1e2
	{0xFA00000000000000, 0x0000000000000000}, // 1e3
	{0x9C40000000000000, 0x0000000000000000}, // 1e4
	{0xC350000000000000, 0x0000000000000000}, // 1e5
	{0xF424000000000000, 0x0000000000000000}, // 1e6
	{0x9896800000000000, 0x0000000000000000}, // 1e7
	{0xBEBC200000000000, 0x0000000000000000}, // 1e8
	{0xEE6B280000000000, 0x0000000000000000}, // 1e9
	{0x9502F90000000000, 0x0000000000000000}, // 1e10
	{0xBA43B74000000000, 0x0000000000000000}, // 1e11
	{0xE8D4A51000000000, 0x0000000000000000}, // 1e12
	{0x9184E72A00000000, 0x0000000000000000}, // 1e13
	{0xB5E620F480000000, 0x0000000000000000}, // 1e14
	{0xE35FA931A0000000, 0x0000000000000000}, // 1e15
	{0x8E1BC9BF04000000, 0x0000000000000000}, // 1e16
	{0xB1A2BC2EC5000000, 0x0000000000000000}, // 1e17
	{0xDE0B6B3A76400000, 0x0000000000000000}, // 1e18
	{0x8AC7230489E80000, 0x0000000000000000}, // 1e19
	{0xAD78EBC5AC620000, 0x0000000000000000}, // 1e20
	{0xD8D726B7177A8000, 0x0000000000000000}, // 1e21
	{0x878678326EAC9000, 0x0000000000000000}, // 1e22
	{0xA968163F0A57B400, 0x0000000000000000}, // 1e23
	{0xD3C21BCECCEDA100, 0x0000000000000000}, // 1e24
	{0x84595161401484A0, 0x0000000000000000}, // 1e25
	{0xA56FA5B99019A5C8, 0x0000000000000000}, // 1e26
	{0xCECB8F27F4200F3A, 0x0000000000000000}, // 1e27
	{0x813F3978F8940984, 0x4000000000000000}, // 1e28
	{0xA18F07D736B90BE5, 0x5000000000000000}, // 1e29
	{0xC9F2C9CD04674EDE, 0xA400000000000000}, // 1e30
	{0xFC6F7C4045812296, 0x4D00000000000000}, // 1e31
	{0x9DC5ADA82B70B59D, 0xF020000000000000}, // 1e32
	{0xC5371912364CE305, 0x6C28000000000000}, // 1e33
	{0xF684DF56C3E01BC6, 0xC732000000000000}, // 1e34
	{0x9A130B963A6C115C, 0x3C7F400000000000}, // 1e35
	{0xC097CE7BC90715B3, 0x4B9F100000000000}, // 1e36
	{0xF0BDC21ABB48DB20, 0x1E86D40000000000}, // 1e37
	{0x96769950B50D88F4, 0x1314448000000000}, // 1e38
}
