package wire

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unsafe"
)

// cursor is the one JSON grammar of the package: it parses NDJSON
// sample lines and /v1/batch bodies alike, in place and without
// allocating on the common path. Objects may hold only the keys of a
// keySet, each at most once and never null; numbers follow strconv's
// grammar, so NaN and Inf pass through for admission to judge.
type cursor struct {
	b    []byte
	i    int
	what string // names the input in errors: "line", "batch body"
}

func (p *cursor) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s offset %d: %s", ErrFormat, p.what, p.i, fmt.Sprintf(format, args...))
}

// skip moves past JSON whitespace and returns the next byte, 0 at the
// end of the input. The scans here work on local copies of the cursor,
// which the compiler keeps in registers.
func (p *cursor) skip() byte {
	b, i := p.b, p.i
	for ; i < len(b); i++ {
		if c := b[i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			p.i = i
			return c
		}
	}
	p.i = i
	return 0
}

func (p *cursor) expect(c byte) error {
	if p.skip() != c {
		return p.errorf("expected %q", c)
	}
	p.i++
	return nil
}

// list parses a bracketed, comma-separated list, calling elem with the
// cursor on each element.
func (p *cursor) list(open, close byte, elem func() error) error {
	if err := p.expect(open); err != nil {
		return err
	}
	if p.skip() == close {
		p.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch p.skip() {
		case ',':
			p.i++
		case close:
			p.i++
			return nil
		default:
			return p.errorf("expected ',' or %q", close)
		}
	}
}

// object parses a JSON object whose keys come from keys, calling field
// with the cursor on each value and the index of its key. Duplicate
// keys, null values and unknown keys are refused first.
func (p *cursor) object(keys keySet, field func(k int) error) error {
	var seen uint64
	return p.list('{', '}', func() error {
		key, err := p.str()
		if err != nil {
			return err
		}
		k := keys.index(key)
		if k >= 0 {
			if seen&(1<<k) != 0 {
				return p.errorf("duplicate key %q", key)
			}
			seen |= 1 << k
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		if p.skip(); p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "null" {
			return p.errorf("null value for key %q", key)
		}
		if k < 0 {
			return p.errorf("unknown key %q", key)
		}
		return field(k)
	})
}

// str parses a JSON string and returns its contents, a view into the
// input. An escaped one, rare here (keys and labels are plain names),
// is unquoted by encoding/json to keep its semantics.
func (p *cursor) str() ([]byte, error) {
	if p.skip() != '"' {
		return nil, p.errorf("expected string")
	}
	b, start, escaped := p.b, p.i, false
	i := start + 1
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '\\':
			escaped = true
			i++
		case c < 0x20:
			p.i = i
			return nil, p.errorf("control character in string")
		case c == '"':
			p.i = i + 1
			if !escaped {
				return b[start+1 : i], nil
			}
			var s string
			if err := json.Unmarshal(b[start:i+1], &s); err != nil {
				return nil, p.errorf("bad string %s", b[start:i+1])
			}
			return []byte(s), nil
		}
	}
	p.i = i
	return nil, p.errorf("unterminated string")
}

// number parses a number with strconv.ParseFloat semantics, the
// strconv superset of JSON numbers (NaN, Inf and hex floats included);
// the token runs to the first numberEnd byte. A plain decimal token
// takes fastNumber, whose result is bit-identical to ParseFloat's;
// every other token goes to ParseFloat itself, so the grammar and the
// errors are strconv's. The unsafe.String view is sound: ParseFloat
// reads its argument only during the call and retains it only inside
// an error, which is dropped here.
func (p *cursor) number() (float64, error) {
	p.skip()
	num := p.b[p.i:]
	if v, n, ok := fastNumber(num); ok && (n == len(num) || numberEnd[num[n]]) {
		p.i += n
		return v, nil
	}
	n := 0
	for n < len(num) && !numberEnd[num[n]] {
		n++
	}
	if n == 0 {
		return 0, p.errorf("expected number")
	}
	num = num[:n]
	v, err := strconv.ParseFloat(unsafe.String(&num[0], n), 64)
	if err != nil {
		return 0, p.errorf("bad number %q", num)
	}
	p.i += n
	return v, nil
}

// numberEnd marks the bytes that end a number token: separators,
// closing brackets and whitespace.
var numberEnd = [256]bool{',': true, '}': true, ']': true, ' ': true, '\t': true, '\r': true, '\n': true}

// keySet is the keys one kind of object may hold; a key's index in the
// set names the slot it fills. Each key is packed into one word, so a
// lookup is a few integer compares, no memory comparison and no
// allocation.
type keySet []uint64

func newKeySet(names ...string) keySet {
	ks := make(keySet, len(names))
	for i, name := range names {
		ks[i], _ = packKey([]byte(name))
	}
	return ks
}

// packKey packs a key of at most 7 bytes into one word, its length in
// the top byte; a longer key, which no keySet holds, reports false.
func packKey(key []byte) (uint64, bool) {
	if len(key) > 7 {
		return 0, false
	}
	v := uint64(len(key)) << 56
	for i, c := range key {
		v |= uint64(c) << (8 * i)
	}
	return v, true
}

// index returns the index of key in the set, -1 for a key it lacks.
func (ks keySet) index(key []byte) int {
	if v, ok := packKey(key); ok {
		for i, w := range ks {
			if w == v {
				return i
			}
		}
	}
	return -1
}
