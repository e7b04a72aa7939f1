package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out, nil); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.Contains(out.String(), "ptrack-serve") {
		t.Errorf("version output %q does not name the tool", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-rate", "0"},
		{"-profile", "1,2"},
		{"-profile", "a,b,c"},
		{"-log-level", "loud"},
		{"-trace-sample", "1.5"},
		{"-trace-sample", "-0.1"},
		{"-trace-export", "/nonexistent-dir/sub/traces.jsonl"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestServeLifecycle boots the command on an ephemeral port, checks it
// answers, and shuts it down through the signal path's test hook.
func TestServeLifecycle(t *testing.T) {
	ready := make(chan string)
	errc := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-rate", "50", "-log-level", "error"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not come up")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", resp.StatusCode)
	}
	close(ready)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "serving on") {
		t.Errorf("stdout %q missing serving banner", out.String())
	}
}

// TestServeTracingLifecycle boots the command with tracing on and an
// OTLP file export, pushes one traced sample, and checks that shutdown
// flushes the exported spans to the file.
func TestServeTracingLifecycle(t *testing.T) {
	exportPath := filepath.Join(t.TempDir(), "traces.jsonl")
	ready := make(chan string)
	errc := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errc <- run([]string{
			"-addr", "127.0.0.1:0", "-rate", "50", "-log-level", "error",
			"-trace-sample", "1", "-trace-export", exportPath,
		}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not come up")
	}

	resp, err := http.Post("http://"+addr+"/v1/sessions/traced/samples",
		"application/x-ndjson",
		strings.NewReader(`{"t":0,"ax":0.1,"ay":0.2,"az":9.8,"yaw":0.0}`+"\n"))
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status = %d, want 200", resp.StatusCode)
	}

	close(ready)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	// The batcher closes after the drain; by now the ingest trace must
	// be on disk as OTLP/JSON.
	data, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatalf("trace export file: %v", err)
	}
	for _, want := range []string{"resourceSpans", "http.ingest", "ptrack-serve"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace export missing %q:\n%s", want, data)
		}
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := parsePeers("a=http://h1:8080, b=http://h2:8080,")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name != "a" || nodes[1].URL != "http://h2:8080" {
		t.Fatalf("parsePeers = %+v", nodes)
	}
	for _, bad := range []string{"", "justaname", "=http://h:1"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) succeeded, want error", bad)
		}
	}
}

func TestReadPeersFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers")
	content := "# production ring\na=http://h1:8080\n\nb=http://h2:8080\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	nodes, err := readPeersFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name != "a" || nodes[1].Name != "b" {
		t.Fatalf("readPeersFile = %+v", nodes)
	}
	if _, err := readPeersFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("readPeersFile(missing) succeeded, want error")
	}
}

func TestClusterFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-peers", "a=http://h:1"}, // membership without -node
		{"-node", "a"},             // -node without membership
		{"-node", "a", "-peers", "garbage"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestClusterLifecycle boots a single-member cluster and checks the
// ring introspection endpoint answers with the member.
func TestClusterLifecycle(t *testing.T) {
	ready := make(chan string)
	errc := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-rate", "50", "-log-level", "error",
			"-node", "solo", "-peers", "solo=http://127.0.0.1:1"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not come up")
	}
	resp, err := http.Get("http://" + addr + "/v1/cluster/ring")
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ring: status %d", resp.StatusCode)
	}
	if !strings.Contains(body.String(), `"solo"`) {
		t.Errorf("ring body %q does not name the member", body.String())
	}
	close(ready)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}
