package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ptrack/internal/stream"
)

// TestOneGrammar pins that NDJSON sample lines and /v1/batch bodies
// share one JSON grammar: each case, written once as an object
// template, goes to the NDJSON decoder as a sample line (keyed by "t")
// and to DecodeBatch as a trace object (keyed by "rate"), and both must
// reach the same verdict. In a template $k is the key, $e the same key
// with its first letter escaped, and $v a number.
func TestOneGrammar(t *testing.T) {
	for _, tc := range []struct {
		name, obj string
		ok        bool
	}{
		{"plain", `{"$k":$v}`, true},
		{"duplicate key", `{"$k":$v,"$k":$v}`, false},
		{"null", `{"$k":null}`, false},
		{"escaped key", `{"$e":$v}`, true},
		{"control character in key", "{\"$k\t\":$v}", false},
		{"missing colon", `{"$k" $v}`, false},
		{"missing comma", `{"$k":$v "$k":$v}`, false},
		{"trailing data", `{"$k":$v} x`, false},
		{"whitespace around every token", " \t{ \"$k\" \t: \r$v\t}\r ", true},
		{"NaN", `{"$k":NaN}`, true},
		{"Inf", `{"$k":-Inf}`, true},
		{"+Inf", `{"$k":+Inf}`, true},
	} {
		line := strings.NewReplacer("$k", "t", "$e", `\u0074`, "$v", "1.5").Replace(tc.obj)
		_, ndErr := drain(NewDecoder(strings.NewReader(line+"\n"), ContentTypeNDJSON), stream.BlockSamples)

		obj := strings.NewReplacer("$k", "rate", "$e", `\u0072ate`, "$v", "100").Replace(tc.obj)
		_, batchErr := DecodeBatch([]byte(`{"traces":[`+obj+`]}`), 256)

		for _, got := range []struct {
			format string
			err    error
		}{{"ndjson", ndErr}, {"batch", batchErr}} {
			if (got.err == nil) != tc.ok || (got.err != nil && !errors.Is(got.err, ErrFormat)) {
				t.Errorf("%s/%s: err = %v, want ok=%v", tc.name, got.format, got.err, tc.ok)
			}
		}
	}
}

// TestSampleLineErrorsCarryOffset: an NDJSON decode error names the
// sample and the byte offset in its line, as batch errors name theirs.
func TestSampleLineErrorsCarryOffset(t *testing.T) {
	in := []byte(`{"t":1}` + "\n" + `{"t":1,"t":2}` + "\n")
	got, err := drain(NewDecoder(bytes.NewReader(in), ContentTypeNDJSON), stream.BlockSamples)
	if len(got) != 1 || !errors.Is(err, ErrFormat) ||
		!strings.Contains(err.Error(), `sample 1: `) || !strings.Contains(err.Error(), `line offset 10: duplicate key "t"`) {
		t.Fatalf("got %d samples, err %v", len(got), err)
	}
}
