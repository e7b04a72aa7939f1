package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ptrack/client"
	"ptrack/internal/trace"
)

// TestEndSessionWaitsOutBackpressure pins that the end of a session
// survives refusals of its final flush: with no retries per push, the
// first push and End's first flush are answered 429 with part accepted,
// and endSession tries again until the server takes the rest — each
// request carrying only what the server had not taken — then ends the
// session.
func TestEndSessionWaitsOutBackpressure(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	ended := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.Method == http.MethodDelete {
			ended = true
			w.WriteHeader(http.StatusNoContent)
			return
		}
		body, _ := io.ReadAll(r.Body)
		sizes = append(sizes, bytes.Count(body, []byte("\n")))
		w.Header().Set("Content-Type", "application/json")
		switch len(sizes) {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"session queue full","code":"backpressure","accepted":100}`))
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"session queue full","code":"backpressure","accepted":50}`))
		default:
			w.Write([]byte(`{"accepted":106}`))
		}
	}))
	defer srv.Close()

	c, err := client.Dial(srv.URL, client.WithRetry(0, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sess := c.Session("s")
	if err := sess.Push(context.Background(), make([]trace.Sample, 256)...); !errors.Is(err, client.ErrGiveUp) {
		t.Fatalf("Push = %v, want ErrGiveUp", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := endSession(ctx, sess); err != nil {
		t.Fatalf("endSession = %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []int{256, 156, 106}; fmt.Sprint(sizes) != fmt.Sprint(want) || !ended {
		t.Fatalf("request sizes = %v (ended %v), want %v and the session ended", sizes, ended, want)
	}
}
