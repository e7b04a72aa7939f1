package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// connGuard is the generator's connection budget: every TCP connection
// the benchmark opens is dialed through it. A dial waits for a free
// slot, so at most limit connections are ever open at once, and the
// live count's peak is reported as loadgen.peak_conns. A slot that does
// not free up within the wait is a leaked connection and fails the run.
type connGuard struct {
	limit int
	sem   chan struct{}
	live  atomic.Int64
	peak  atomic.Int64
	wait  time.Duration
}

func newConnGuard(limit int) *connGuard {
	return &connGuard{limit: limit, sem: make(chan struct{}, limit), wait: 10 * time.Second}
}

var errConnBudget = errors.New("connection budget exhausted: a connection was not released")

func (g *connGuard) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	select {
	case g.sem <- struct{}{}:
	case <-time.After(g.wait):
		return nil, errConnBudget
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		<-g.sem
		return nil, err
	}
	n := g.live.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &guardedConn{Conn: c, g: g}, nil
}

type guardedConn struct {
	net.Conn
	g    *connGuard
	once sync.Once
}

func (c *guardedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		c.g.live.Add(-1)
		<-c.g.sem
	})
	return err
}

// lane is one HTTP/1.1 connection's worth of client: requests issued on
// a lane run one after another over a single kept-alive connection.
type lane struct {
	tr *http.Transport
	hc *http.Client
}

func newLane(g *connGuard) *lane {
	tr := &http.Transport{
		DialContext:         g.dial,
		MaxConnsPerHost:     1,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
		ForceAttemptHTTP2:   false,
	}
	return &lane{tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// release closes the lane's idle connection, returning its slot to the
// budget.
func (l *lane) release() { l.tr.CloseIdleConnections() }

// do sends one request and reads the whole response body into buf
// (reused across calls).
func (l *lane) do(method, url, ctype string, body io.Reader, size int64, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.ContentLength = size
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read %s response: %w", url, err)
	}
	return resp.StatusCode, nil
}

// get is do for a bodiless GET.
func (l *lane) get(url string, buf *bytes.Buffer) (int, error) {
	return l.do(http.MethodGet, url, "", nil, 0, buf)
}

// sseMsg is one server-sent event as the reader saw it.
type sseMsg struct {
	kind string
	data []byte
	at   time.Time
}

// sseStream reads one SSE subscription on its own lane until the server
// ends it (an "end" or "moved" frame) or the stream breaks.
type sseStream struct {
	done chan struct{}
	err  error
	body io.Closer

	mu   sync.Mutex
	msgs []sseMsg
}

// subscribe opens an event stream and returns once the server has
// answered, i.e. the subscription is registered before any sample is
// pushed.
func subscribe(l *lane, url string) (*sseStream, error) {
	resp, err := l.hc.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe %s: status %d", url, resp.StatusCode)
	}
	s := &sseStream{done: make(chan struct{}), body: resp.Body}
	go s.read(resp.Body)
	return s, nil
}

func (s *sseStream) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	r := bufio.NewReaderSize(body, 64<<10)
	var kind string
	var data []byte
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.err = err
			}
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if kind == "" && data == nil {
				continue
			}
			m := sseMsg{kind: kind, data: data, at: time.Now()}
			s.mu.Lock()
			s.msgs = append(s.msgs, m)
			s.mu.Unlock()
			if kind == "end" || kind == "moved" {
				return
			}
			kind, data = "", nil
		case line[0] == ':':
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

// wait blocks until the stream ends or the timeout passes (then the
// stream is cut), and returns everything received.
func (s *sseStream) wait(timeout time.Duration) ([]sseMsg, error) {
	select {
	case <-s.done:
	case <-time.After(timeout):
		s.body.Close()
		<-s.done
		return s.msgs, fmt.Errorf("event stream did not end within %v", timeout)
	}
	return s.msgs, s.err
}
