package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun checks the shape of the example's output, not its port or the
// exact step counts: a listening line, the streamed events, and a
// streamed and a batch total that both counted steps.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.HasPrefix(s, "server listening on 127.0.0.1:") {
		t.Errorf("output does not start with the listening line:\n%s", s)
	}
	if !strings.Contains(s, "\n  t=") {
		t.Errorf("no event lines:\n%s", s)
	}
	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^streamed session: (\d+) steps$`),
		regexp.MustCompile(`(?m)^batch result: +(\d+) steps, [0-9.]+ m$`),
	} {
		m := re.FindStringSubmatch(s)
		if m == nil {
			t.Errorf("no line matching %s:\n%s", re, s)
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n <= 0 {
			t.Errorf("%q: want a positive step count", m[0])
		}
	}
}
