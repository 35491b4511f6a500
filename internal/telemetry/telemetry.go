// Package telemetry is a dependency-free metrics layer for the Harmonia
// service: counters, gauges, and histograms — optionally labelled — that
// render in the Prometheus text exposition format. It is modelled on the
// collector shape of production GPU exporters (a registry owning metric
// families, families owning labelled series) but carries no client
// library: the simulator must stay importable with a bare Go toolchain.
//
// All operations are safe for concurrent use. Exposition output is
// deterministic: families sort by name and series by label values, so
// tests can diff scrapes textually.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricType is the TYPE line vocabulary of the exposition format.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Registry owns a set of metric families and renders them as a
// Prometheus text-format scrape.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one metric family: a name, a type, and its labelled series.
type family struct {
	name       string
	help       string
	typ        metricType
	labelNames []string
	buckets    []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

// series is one labelled time series of a family.
type series struct {
	labelValues []string

	mu    sync.Mutex
	value float64 // counter and gauge

	counts []uint64 // histogram: cumulative-to-be bucket counts (per bucket)
	sum    float64
	count  uint64
}

// lookup returns the family with the given identity, creating it on
// first use. Re-registering a name with a different type or label set is
// a programming error and panics — silently returning a mismatched
// family would corrupt the scrape.
func (r *Registry) lookup(name, help string, typ metricType, labelNames []string, buckets []float64) *family {
	if err := checkName(name); err != nil {
		panic("telemetry: " + err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v, was %s%v",
				name, typ, labelNames, f.typ, f.labelNames))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// get returns the series for the given label values, creating it on
// first use.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), labelValues...)}
	if f.typ == typeHistogram {
		s.counts = make([]uint64, len(f.buckets))
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing value. A nil *Counter is a
// no-op that reads as zero, so a caller without a registry needs no
// guard.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) {
		return
	}
	c.s.mu.Lock()
	c.s.value += v
	c.s.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.value
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	g.s.mu.Lock()
	g.s.value += v
	g.s.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.value
}

// Histogram accumulates observations into fixed buckets. A nil
// *Histogram is a no-op that reads as empty.
type Histogram struct {
	f *family
	s *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.s.counts[i]++
		}
	}
	h.s.sum += v
	h.s.count++
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}

// Sum returns the sum of all observations so far.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.sum
}

// Counter returns the unlabelled counter with the given name, creating
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, typeCounter, nil, nil)
	return &Counter{s: f.get(nil)}
}

// Gauge returns the unlabelled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, typeGauge, nil, nil)
	return &Gauge{s: f.get(nil)}
}

// Histogram returns the unlabelled histogram with the given name and
// bucket upper bounds (ascending; a +Inf bucket is implied).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, typeHistogram, nil, checkBuckets(buckets))
	return &Histogram{f: f, s: f.get(nil)}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labelled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, typeCounter, labelNames, nil)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labelled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labelNames, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.get(labelValues)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labelled histogram family with the given
// name and bucket upper bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, typeHistogram, labelNames, checkBuckets(buckets))}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.get(labelValues)}
}

// ExponentialBuckets returns n upper bounds starting at start and
// multiplying by factor: the standard latency/energy bucketing.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds starting at start and stepping
// by width.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("telemetry: LinearBuckets wants width > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start += width
	}
	return out
}

// DefDurationBuckets is the default bucketing for request durations in
// seconds.
var DefDurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Families returns the number of metric families registered.
func (r *Registry) Families() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fams)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders one family.
func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sers := make([]*series, len(keys))
	for i, k := range keys {
		sers[i] = f.series[k]
	}
	f.mu.Unlock()
	for _, s := range sers {
		s.mu.Lock()
		switch f.typ {
		case typeHistogram:
			for i, ub := range f.buckets {
				// counts[i] is already cumulative: Observe increments
				// every bucket whose bound the value fits under.
				fmt.Fprintf(b, "%s_bucket%s %d\n",
					f.name, f.labelString(s.labelValues, formatFloat(ub)), s.counts[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.labelString(s.labelValues, "+Inf"), s.count)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, f.labelString(s.labelValues, ""), formatFloat(s.sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, f.labelString(s.labelValues, ""), s.count)
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name, f.labelString(s.labelValues, ""), formatFloat(s.value))
		}
		s.mu.Unlock()
	}
}

// labelString renders {k="v",...}; le, when non-empty, is appended as
// the histogram bucket bound label.
func (f *family) labelString(values []string, le string) string {
	if len(f.labelNames) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range f.labelNames {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", n, escapeLabel(values[i]))
	}
	if le != "" {
		if len(f.labelNames) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	s := fmt.Sprintf("%g", v)
	return s
}

// escapeHelp escapes backslash and newline for HELP lines.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double quote, and newline inside label
// values, per the exposition-format rules.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// checkName validates a metric name against [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// checkBuckets validates ascending positive-count bucket bounds.
func checkBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic("telemetry: histogram wants at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("telemetry: histogram buckets must ascend")
		}
	}
	return buckets
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
