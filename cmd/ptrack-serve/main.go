// Command ptrack-serve runs the PTrack network serving layer: an HTTP
// service that ingests live sample streams into per-session trackers,
// streams classification events back over SSE, and runs whole traces
// through the concurrent batch pool.
//
// Usage:
//
//	ptrack-serve -addr :8080 -rate 50
//	ptrack-serve -addr :8080 -rate 50 -condition -profile 0.62,0.90,2.35
//	ptrack-serve -addr :8080 -rate 50 -rps 100 -max-inflight 128 \
//	    -debug-addr localhost:6060 -log-level info
//	ptrack-serve -addr :8080 -rate 50 -debug-addr localhost:6060 \
//	    -trace-sample 0.01 -trace-export /var/log/ptrack-traces.jsonl
//	ptrack-serve -addr :8080 -rate 50 -state-dir /var/lib/ptrack/state
//	ptrack-serve -addr :8081 -rate 50 -node a -state-dir /var/lib/ptrack/a \
//	    -peers a=http://10.0.0.1:8081,b=http://10.0.0.2:8081,c=http://10.0.0.3:8081
//
// With -state-dir, session state is durable: every live session is
// checkpointed into the directory (periodically and on shutdown), and a
// restarted server resumes mid-stream sessions from it — step totals
// continue instead of resetting. See docs/SESSIONS.md.
//
// With -node and a membership (-peers or -peers-file), the server is
// one replica of a sharded cluster: sessions are assigned to replicas
// by a consistent-hash ring, requests for sessions owned elsewhere are
// proxied to their owner, snapshots are replicated to -replicas ring
// owners, and SIGHUP re-reads the peers file, migrating sessions to the
// new ring. The ring is introspectable
// at GET /v1/cluster/ring. See docs/CLUSTER.md.
//
// With -trace-sample > 0 (or -trace-export set), sampled requests are
// decomposed into span trees browsable at /debug/traces on the debug
// server; -trace-export additionally ships them as OTLP/JSON to a file
// path or, when the value starts with http:// or https://, to an OTLP
// HTTP endpoint. Live per-session state is served at /debug/sessions.
// See docs/TRACING.md.
//
// The service drains gracefully on SIGINT/SIGTERM: in-flight requests
// finish, every live session is flushed, trailing events are delivered
// to subscribers, then the listener closes. See docs/SERVING.md for the
// API.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptrack"
	"ptrack/internal/buildinfo"
	"ptrack/internal/cluster"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ptrack-serve:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until a termination signal (or a
// test closes ready after reading the bound address). ready, when
// non-nil, receives the listen address once serving — tests use it; the
// command passes nil.
func run(args []string, stdout io.Writer, ready chan string) error {
	fs := flag.NewFlagSet("ptrack-serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		rate        = fs.Float64("rate", 50, "sample rate of ingested streams (Hz)")
		profileFlag = fs.String("profile", "", "arm,leg,k user profile for stride estimation (e.g. 0.62,0.90,2.35)")
		delta       = fs.Float64("delta", 0, "override the gait-identification threshold (0 = paper default 0.0325)")
		repair      = fs.Bool("condition", false, "route ingested data through the trace conditioner (repairs NaN spikes, gaps, duplicates)")
		workers     = fs.Int("workers", 0, "worker count for /v1/batch (0 = GOMAXPROCS)")
		rps         = fs.Float64("rps", 0, "per-client rate limit in requests/second (0 = unlimited)")
		burst       = fs.Int("burst", 0, "rate-limit burst (0 = 2x rps)")
		maxInflight = fs.Int("max-inflight", 64, "max concurrently admitted ingestion requests (-1 = unlimited)")
		maxBody     = fs.Int64("max-body", 8<<20, "request body cap in bytes")
		eventBuf    = fs.Int("event-buffer", 256, "per-subscriber event buffer (events)")
		stateDir    = fs.String("state-dir", "", "persist session state under this directory; a restarted server resumes mid-stream sessions from it")
		checkpoint  = fs.Duration("checkpoint", 0, "periodic session-checkpoint interval (0 = 30s default, negative = end-of-session only; needs -state-dir)")
		nodeName    = fs.String("node", "", "this replica's node name; enables cluster mode (requires -peers or -peers-file)")
		peersFlag   = fs.String("peers", "", "static cluster membership as name=url,name=url,… (normally includes this node)")
		peersFile   = fs.String("peers-file", "", "file with one name=url membership entry per line (# comments); SIGHUP re-reads it and migrates sessions to the new ring")
		replicas    = fs.Int("replicas", 0, "snapshot copies per session across the ring (0 = default 2)")
		drainWait   = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		debugAddr   = fs.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/traces and /debug/sessions on this address")
		traceSample = fs.Float64("trace-sample", 0, "head-sampling probability for request tracing in [0,1] (0 = trace nothing unless -trace-export is set, then errors only)")
		traceExport = fs.String("trace-export", "", "ship sampled spans as OTLP/JSON to this file path, or to an OTLP endpoint when the value starts with http:// or https://")
		logLevel    = fs.String("log-level", "info", "slog level: debug|info|warn|error")
		version     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("ptrack-serve"))
		return nil
	}
	level, err := ptrack.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := ptrack.NewLogger(os.Stderr, level)

	metrics := ptrack.NewMetrics()
	observer := ptrack.NewObserver(metrics).WithCycleLogger(logger)

	// Tracing: the in-memory ring always backs /debug/traces when
	// tracing is on; -trace-export adds an OTLP sink behind a bounded
	// batcher. The batcher closes (flushing its queue) after Shutdown
	// has drained the pipeline — defers run after the return value is
	// computed.
	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0,1], got %v", *traceSample)
	}
	var ring *ptrack.TraceRing
	if *traceSample > 0 || *traceExport != "" {
		ring = ptrack.NewTraceRing(0)
		exporter := ptrack.SpanExporter(ring)
		if *traceExport != "" {
			var sink tracing.Sink
			if strings.HasPrefix(*traceExport, "http://") || strings.HasPrefix(*traceExport, "https://") {
				sink = tracing.NewOTLPHTTPSink(*traceExport, "ptrack-serve", nil)
			} else {
				fileSink, err := tracing.NewOTLPFileSink(*traceExport, "ptrack-serve")
				if err != nil {
					return fmt.Errorf("-trace-export: %w", err)
				}
				sink = fileSink
			}
			batcher := tracing.NewBatcher(sink, tracing.BatcherConfig{
				OnError: func(err error) { logger.Warn("trace export failed", "err", err) },
			})
			defer func() {
				if err := batcher.Close(); err != nil {
					logger.Warn("trace exporter close failed", "err", err)
				}
				if n := batcher.Dropped(); n > 0 {
					logger.Warn("trace spans dropped on full export queue", "dropped", n)
				}
			}()
			exporter = tracing.Multi(ring, batcher)
		}
		tracer := ptrack.NewTracer(ptrack.TracerConfig{
			Service:    "ptrack-serve",
			SampleRate: *traceSample,
			Exporter:   exporter,
		})
		observer = observer.WithTracer(tracer)
		logger.Info("tracing enabled", "sample_rate", *traceSample, "export", *traceExport)
	}

	opts := []ptrack.Option{ptrack.WithObserver(observer)}
	if *delta != 0 {
		opts = append(opts, ptrack.WithOffsetThreshold(*delta))
	}
	if *profileFlag != "" {
		arm, leg, k, err := parseProfile(*profileFlag)
		if err != nil {
			return err
		}
		opts = append(opts, ptrack.WithProfile(arm, leg, k))
	}

	var stateStore ptrack.SessionStore
	if *stateDir != "" {
		stateStore, err = ptrack.NewDirSessionStore(*stateDir)
		if err != nil {
			return err
		}
		logger.Info("session state is durable", "dir", *stateDir)
	}

	var clu *cluster.Cluster
	if *nodeName != "" {
		nodes, err := loadMembership(*peersFlag, *peersFile)
		if err != nil {
			return err
		}
		clu, err = cluster.New(cluster.Config{
			Self:     *nodeName,
			Nodes:    nodes,
			Replicas: *replicas,
			Logger:   logger,
		})
		if err != nil {
			return err
		}
		self := false
		for _, n := range nodes {
			self = self || n.Name == *nodeName
		}
		if !self {
			// Legal — a member outside the ring owns nothing and only
			// routes — but far more often a typo'd -node.
			logger.Warn("this node is not in the membership; it will own no sessions", "node", *nodeName)
		}
		logger.Info("cluster mode", "node", *nodeName,
			"members", len(nodes), "ring", clu.Ring().Version())
	} else if *peersFlag != "" || *peersFile != "" {
		return fmt.Errorf("-peers/-peers-file require -node")
	}

	srv, err := server.New(server.Config{
		SampleRate:         *rate,
		Options:            opts,
		Conditioning:       *repair,
		Workers:            *workers,
		Store:              stateStore,
		CheckpointInterval: *checkpoint,
		Cluster:            clu,
		MaxInFlight:        *maxInflight,
		RatePerSec:         *rps,
		Burst:              *burst,
		MaxBodyBytes:       *maxBody,
		EventBuffer:        *eventBuf,
		Hooks:              observer,
		Logger:             logger,
		Version:            buildinfo.String("ptrack-serve"),
	})
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		routes := []ptrack.DebugRoute{
			{Pattern: "/debug/sessions", Handler: srv.SessionsHandler()},
		}
		if ring != nil {
			routes = append(routes, ptrack.DebugRoute{Pattern: "/debug/traces", Handler: ring.Handler()})
		}
		dbg, err := ptrack.ServeDebug(*debugAddr, metrics, routes...)
		if err != nil {
			return err
		}
		defer dbg.Close()
		logger.Info("debug server listening", "addr", dbg.Addr())
	}

	if err := srv.Start(*addr); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving on %s\n", srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	hup := make(chan os.Signal, 1)
	if clu != nil && *peersFile != "" {
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
	}
	var testDone chan string
	if ready != nil {
		ready <- srv.Addr()
		testDone = ready // test closes the channel to trigger shutdown
	}
	// testDone stays nil outside tests; receiving from a nil channel
	// blocks forever, so only the signals matter then.
	for running := true; running; {
		select {
		case <-stop:
			running = false
		case <-testDone:
			running = false
		case <-hup:
			// Membership reload: re-read the peers file, install the new
			// ring, migrate sessions this replica no longer owns.
			nodes, err := readPeersFile(*peersFile)
			if err != nil {
				logger.Warn("peers-file reload failed; keeping current ring", "err", err)
				continue
			}
			if err := srv.SetRing(nodes); err != nil {
				logger.Warn("ring change rejected; keeping current ring", "err", err)
				continue
			}
			logger.Info("ring reloaded", "members", len(nodes), "ring", clu.Ring().Version())
		}
	}
	logger.Info("shutting down")

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	return srv.Shutdown(ctx)
}

// loadMembership resolves the cluster membership from the -peers flag
// and/or the -peers-file (the file wins when both are given, since
// SIGHUP re-reads only the file).
func loadMembership(peers, file string) ([]cluster.Node, error) {
	if file != "" {
		return readPeersFile(file)
	}
	if peers == "" {
		return nil, fmt.Errorf("cluster mode needs a membership: set -peers or -peers-file")
	}
	return parsePeers(peers)
}

// parsePeers parses "name=url,name=url,…" into a node list.
func parsePeers(s string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("peer %q: want name=url", part)
		}
		nodes = append(nodes, cluster.Node{Name: name, URL: url})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("empty cluster membership")
	}
	return nodes, nil
}

// readPeersFile parses a membership file: one name=url entry per line,
// blank lines and #-comments ignored.
func readPeersFile(path string) ([]cluster.Node, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("peers-file: %w", err)
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries = append(entries, line)
	}
	nodes, err := parsePeers(strings.Join(entries, ","))
	if err != nil {
		return nil, fmt.Errorf("peers-file %s: %w", path, err)
	}
	return nodes, nil
}

// parseProfile parses "arm,leg,k" in metres/metres/unitless.
func parseProfile(s string) (arm, leg, k float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("profile must be arm,leg,k (got %q)", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		vals[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("profile component %q: %w", p, err)
		}
	}
	return vals[0], vals[1], vals[2], nil
}
