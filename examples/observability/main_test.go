package main

import (
	"bytes"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the example on an ephemeral port with the cycle log
// discarded and checks the shape of its report: the sample, event and
// step totals, and a non-empty Prometheus snapshot after them.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-debug-addr", "127.0.0.1:0"}, &out, io.Discard); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	m := regexp.MustCompile(`(?m)^processed 10000 samples, (\d+) events, (\d+) steps \(truth (\d+)\)$`).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("no totals line:\n%s", s)
	}
	for i, name := range []string{"events", "steps", "truth"} {
		if n, _ := strconv.Atoi(m[i+1]); n <= 0 {
			t.Errorf("%s = %s, want > 0", name, m[i+1])
		}
	}
	_, snap, ok := strings.Cut(s, "--- metrics snapshot ---\n")
	if !ok || !strings.Contains(snap, "# TYPE ") {
		t.Errorf("no Prometheus snapshot after the totals:\n%s", s)
	}
}
