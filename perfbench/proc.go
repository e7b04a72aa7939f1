package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one ptrack-serve child process.
type serverProc struct {
	cmd       *exec.Cmd
	started   time.Time
	addr      string // http://host:port of the API
	debugAddr string // http://host:port of the debug listener
	exited    chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startServer launches ptrack-serve with args (pinned to its CPU when
// the host has one to spare) and waits until it prints its listen
// address. The debug listener's address is read from its log.
func (e *env) startServer(args []string) (*serverProc, error) {
	p := &serverProc{exited: make(chan struct{})}
	argv := append([]string{e.serveBin,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-log-level", "info",
	}, args...)
	if e.srvCPU >= 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		argv = append([]string{self, "-exec-on-cpu", strconv.Itoa(e.srvCPU)}, argv...)
	}
	p.cmd = exec.Command(argv[0], argv[1:]...)
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", argv[0], err)
	}
	addrCh := make(chan string, 1)
	debugCh := make(chan string, 1)
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
				addrCh <- a
			}
		}
	}()
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, `msg="debug server listening"`) {
				if i := strings.Index(line, " addr="); i >= 0 {
					debugCh <- strings.Fields(line[i+len(" addr="):])[0]
				}
			}
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
	}()
	go func() {
		pipes.Wait() // Wait must not run before the pipes are drained
		_ = p.cmd.Wait()
		close(p.exited)
	}()

	timeout := time.After(60 * time.Second)
	for p.addr == "" || p.debugAddr == "" {
		select {
		case a := <-addrCh:
			p.addr = "http://" + a
		case a := <-debugCh:
			p.debugAddr = "http://" + a
		case <-p.exited:
			return nil, fmt.Errorf("ptrack-serve exited during start: %s", p.stderrTail())
		case <-timeout:
			p.kill()
			return nil, fmt.Errorf("ptrack-serve did not start within 60s: %s", p.stderrTail())
		}
	}
	return p, nil
}

func (p *serverProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop drains the server with SIGTERM (its graceful shutdown flushes and
// checkpoints every session) and waits for it to exit, killing it if
// the drain overruns.
func (p *serverProc) stop(timeout time.Duration) error {
	select {
	case <-p.exited:
		return nil
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return nil
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("ptrack-serve did not drain within %v", timeout)
	}
}

// kill ends the process at once and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// cpu returns the process's user+system CPU time so far.
func (p *serverProc) cpu() (time.Duration, error) {
	return procCPU(p.cmd.Process.Pid)
}

// procCPU reads utime+stime of pid from /proc (in USER_HZ = 100 ticks).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// scrape is what the benchmark reads from the debug listener after the
// measured window: Prometheus series (each also summed under its bare
// name) and the Go runtime's memstats.
type scrape struct {
	prom    map[string]float64 // "name" and "name{labels}" → value
	numGC   float64
	pauseNs float64
	heapMB  float64
}

type sessionStat struct {
	ID       string `json:"session"`
	QueueLen int    `json:"queue_len"`
	Samples  int64  `json:"samples"`
	Steps    int64  `json:"steps"`
	Restored bool   `json:"restored"`
}

// collect has the server run a full garbage collection (its heap
// profile endpoint collects before it reports), on a connection of its
// own, so a measured phase starts from the same heap state on every
// run instead of from wherever the collector's cycle happens to be.
func (e *env) collect(srv *serverProc) error {
	l := newLane(e.guard)
	defer l.release()
	var buf bytes.Buffer
	status, err := l.get(srv.debugAddr+"/debug/pprof/heap?gc=1", &buf)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("/debug/pprof/heap: status %d", status)
	}
	return nil
}

func readSessions(l *lane, debug string, buf *bytes.Buffer) ([]sessionStat, error) {
	status, err := l.get(debug+"/debug/sessions", buf)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/debug/sessions: status %d", status)
	}
	var out struct {
		Sessions []sessionStat `json:"sessions"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("/debug/sessions: %w", err)
	}
	return out.Sessions, nil
}

func readScrape(l *lane, debug string) (*scrape, error) {
	var buf bytes.Buffer
	sc := &scrape{prom: map[string]float64{}}
	status, err := l.get(debug+"/metrics", &buf)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	parseProm(&buf, sc.prom)
	status, err = l.get(debug+"/debug/vars", &buf)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/debug/vars: status %d", status)
	}
	var vars struct {
		Memstats struct {
			NumGC        float64 `json:"NumGC"`
			PauseTotalNs float64 `json:"PauseTotalNs"`
			HeapAlloc    float64 `json:"HeapAlloc"`
		} `json:"memstats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	sc.numGC = vars.Memstats.NumGC
	sc.pauseNs = vars.Memstats.PauseTotalNs
	sc.heapMB = vars.Memstats.HeapAlloc / (1 << 20)
	return sc, nil
}

// parseProm reads Prometheus text exposition into m, keyed both by the
// full series ("name{labels}") and by the bare name (summed).
func parseProm(r io.Reader, m map[string]float64) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		m[series] += v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			m[series[:i]] += v
		}
	}
}

// selfCPU is the benchmark process's own CPU time so far (0 if
// unreadable; it only feeds the generator-cost layer metric).
func selfCPU() time.Duration {
	d, _ := procCPU(os.Getpid())
	return d
}
