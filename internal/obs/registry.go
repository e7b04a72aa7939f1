// Package obs is the observability layer of the PTrack service: a
// lightweight, stdlib-only metrics registry (counters, gauges and
// fixed-bucket histograms with atomic updates), nil-safe instrumentation
// hooks for the batch and streaming pipelines, an optional structured
// per-cycle trace logger built on log/slog, and a debug HTTP server
// exposing Prometheus text at /metrics, expvar JSON at /debug/vars and
// the net/http/pprof profiles.
//
// Everything is safe for concurrent use; metric updates are single
// atomic operations and never allocate, so instrumentation can sit on
// the pipeline hot path. All hook methods are no-ops on a nil receiver,
// keeping the zero-config path free of any overhead.
package obs

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap on its bit
// pattern. Loads and stores are lock-free and never allocate.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomicFloat
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas are ignored to preserve monotonicity.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.v.Add(v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomicFloat
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adjusts the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Bounds are the
// inclusive upper edges of the buckets; an implicit +Inf bucket catches
// the rest. Observe is a bounded linear scan plus three atomic updates.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Snapshot returns the bucket upper bounds and their cumulative counts
// (the +Inf bucket last).
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64) {
	bounds = h.bounds
	cumulative = make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return bounds, cumulative
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metricEntry is one registered metric instance (family name plus a
// fixed label set).
type metricEntry struct {
	name   string // family name, e.g. ptrack_cycles_total
	labels string // rendered label set, e.g. `label="walking"`, or ""
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

func (m *metricEntry) key() string { return m.name + "{" + m.labels + "}" }

// Registry holds a set of named metrics and renders them as Prometheus
// text exposition or an expvar-style JSON snapshot. Registration is
// idempotent: asking for an existing name+labels pair returns the
// already-registered instance, so independent pipeline hooks can share
// one registry. The zero Registry is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	entries []*metricEntry          // registration order
	byKey   map[string]*metricEntry // name{labels} -> entry

	// GoRuntime adds a small set of go_* gauges sampled from
	// runtime/metrics at exposition time. Enabled by NewRegistry.
	GoRuntime bool
}

// NewRegistry returns an empty registry with Go runtime sampling on.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metricEntry), GoRuntime: true}
}

// renderLabels turns variadic key/value pairs into `k1="v1",k2="v2"`.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(pairs[i+1])
		b.WriteByte('"')
	}
	return b.String()
}

func (r *Registry) register(name, help string, kind metricKind, labels []string) *metricEntry {
	e := &metricEntry{name: name, labels: renderLabels(labels), help: help, kind: kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byKey[e.key()]; ok {
		if prev.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", e.key(), kind, prev.kind))
		}
		return prev
	}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	}
	r.entries = append(r.entries, e)
	r.byKey[e.key()] = e
	return e
}

// Counter registers (or fetches) a counter. labels are key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, kindCounter, labels).counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, kindGauge, labels).gauge
}

// Histogram registers (or fetches) a histogram with the given upper
// bucket bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	e := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.hist == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing", name))
			}
		}
		e.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return e.hist
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), including the go_* runtime gauges when
// GoRuntime is set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := append([]*metricEntry(nil), r.entries...)
	goRuntime := r.GoRuntime
	r.mu.Unlock()

	// The exposition format requires all samples of a family to form one
	// contiguous group after its TYPE line; group by family name in
	// first-registration order.
	var familyOrder []string
	families := make(map[string][]*metricEntry, len(entries))
	for _, e := range entries {
		if _, ok := families[e.name]; !ok {
			familyOrder = append(familyOrder, e.name)
		}
		families[e.name] = append(families[e.name], e)
	}
	for _, name := range familyOrder {
		group := families[name]
		if group[0].help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, group[0].help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, group[0].kind); err != nil {
			return err
		}
		for _, e := range group {
			if err := writeEntry(w, e); err != nil {
				return err
			}
		}
	}
	if goRuntime {
		if err := writeGoRuntime(w); err != nil {
			return err
		}
	}
	return nil
}

func writeEntry(w io.Writer, e *metricEntry) error {
	series := func(suffix, extraLabels string) string {
		labels := e.labels
		if extraLabels != "" {
			if labels != "" {
				labels += ","
			}
			labels += extraLabels
		}
		if labels == "" {
			return e.name + suffix
		}
		return e.name + suffix + "{" + labels + "}"
	}
	switch e.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %s\n", series("", ""), formatFloat(e.counter.Value()))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", series("", ""), formatFloat(e.gauge.Value()))
		return err
	default:
		bounds, cum := e.hist.Snapshot()
		for i, b := range bounds {
			if _, err := fmt.Fprintf(w, "%s %d\n", series("_bucket", `le="`+formatFloat(b)+`"`), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", series("_bucket", `le="+Inf"`), cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series("_sum", ""), formatFloat(e.hist.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", series("_count", ""), e.hist.Count())
		return err
	}
}

// goRuntimeSamples are the runtime/metrics series exported alongside the
// registry's own metrics (names are stable across Go releases).
var goRuntimeSamples = []struct {
	runtimeName string
	promName    string
	help        string
}{
	{"/sched/goroutines:goroutines", "go_goroutines", "Number of live goroutines."},
	{"/memory/classes/heap/objects:bytes", "go_heap_objects_bytes", "Bytes of allocated heap objects."},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "Completed GC cycles."},
}

func writeGoRuntime(w io.Writer) error {
	samples := make([]metrics.Sample, len(goRuntimeSamples))
	for i, s := range goRuntimeSamples {
		samples[i].Name = s.runtimeName
	}
	metrics.Read(samples)
	for i, s := range goRuntimeSamples {
		var v float64
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			v = float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			v = samples[i].Value.Float64()
		default:
			continue
		}
		kind := "gauge"
		if strings.HasSuffix(s.promName, "_total") {
			kind = "counter"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			s.promName, s.help, s.promName, kind, s.promName, formatFloat(v)); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns all metrics as a JSON-marshalable map: scalar metrics
// map to their value, histograms to {count, sum, buckets}. Keys are the
// full series names (family plus label set).
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	entries := append([]*metricEntry(nil), r.entries...)
	r.mu.Unlock()

	out := make(map[string]any, len(entries))
	for _, e := range entries {
		name := e.name
		if e.labels != "" {
			name += "{" + e.labels + "}"
		}
		switch e.kind {
		case kindCounter:
			out[name] = e.counter.Value()
		case kindGauge:
			out[name] = e.gauge.Value()
		default:
			bounds, cum := e.hist.Snapshot()
			buckets := make(map[string]uint64, len(cum))
			for i, b := range bounds {
				buckets[formatFloat(b)] = cum[i]
			}
			buckets["+Inf"] = cum[len(cum)-1]
			out[name] = map[string]any{
				"count":   e.hist.Count(),
				"sum":     e.hist.Sum(),
				"buckets": buckets,
			}
		}
	}
	return out
}
