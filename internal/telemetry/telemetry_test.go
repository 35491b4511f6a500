package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterSemantics(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	// Same name returns the same series.
	if got := r.Counter("test_total", "help").Value(); got != 3.5 {
		t.Errorf("re-lookup = %v, want 3.5", got)
	}
}

func TestGaugeSemantics(t *testing.T) {
	r := New()
	g := r.Gauge("test_gauge", "help")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
}

func TestHistogramSemantics(t *testing.T) {
	r := New()
	h := r.Histogram("test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.55 {
		t.Errorf("sum = %v, want 55.55", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="10"} 3`,
		`test_seconds_bucket{le="+Inf"} 4`,
		`test_seconds_sum 55.55`,
		`test_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := New()
	v := r.CounterVec("req_total", "requests", "method", "code")
	v.With("GET", "200").Add(3)
	v.With("POST", "500").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total requests",
		"# TYPE req_total counter",
		`req_total{method="GET",code="200"} 3`,
		`req_total{method="POST",code="500"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionDeterministic(t *testing.T) {
	build := func() string {
		r := New()
		r.Counter("zz_total", "z").Inc()
		r.Gauge("aa_gauge", "a").Set(1)
		v := r.CounterVec("mm_total", "m", "k")
		v.With("b").Inc()
		v.With("a").Inc()
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := build()
	for i := 0; i < 10; i++ {
		if got := build(); got != first {
			t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	// Families sort by name.
	if strings.Index(first, "aa_gauge") > strings.Index(first, "mm_total") ||
		strings.Index(first, "mm_total") > strings.Index(first, "zz_total") {
		t.Errorf("families not sorted:\n%s", first)
	}
	// Series sort by label value.
	if strings.Index(first, `mm_total{k="a"}`) > strings.Index(first, `mm_total{k="b"}`) {
		t.Errorf("series not sorted:\n%s", first)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.CounterVec("esc_total", "h", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", b.String())
	}
}

// TestExpositionBytePinned pins the complete rendered exposition —
// byte for byte — for a registry whose labels and help text hold every
// character the format escapes (backslash, double quote, newline).
// Labeled quality families (misbin tunable/pair labels) ride on this
// escaping; a renderer change that shifts a single byte must be
// deliberate.
func TestExpositionBytePinned(t *testing.T) {
	r := New()
	r.Counter("pin_plain_total", "plain help").Add(2)
	r.CounterVec("pin_esc_total", `help with \ and`+"\nnewline", "path", "quote").
		With(`C:\tmp`+"\nend", `say "hi"`).Inc()
	r.HistogramVec("pin_hist", "h", []float64{0.5, 2}, "bin").With("LOW\\HIGH").Observe(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP pin_esc_total help with \\\\ and\\nnewline\n" +
		"# TYPE pin_esc_total counter\n" +
		"pin_esc_total{path=\"C:\\\\tmp\\nend\",quote=\"say \\\"hi\\\"\"} 1\n" +
		"# HELP pin_hist h\n" +
		"# TYPE pin_hist histogram\n" +
		"pin_hist_bucket{bin=\"LOW\\\\HIGH\",le=\"0.5\"} 0\n" +
		"pin_hist_bucket{bin=\"LOW\\\\HIGH\",le=\"2\"} 1\n" +
		"pin_hist_bucket{bin=\"LOW\\\\HIGH\",le=\"+Inf\"} 1\n" +
		"pin_hist_sum{bin=\"LOW\\\\HIGH\"} 1\n" +
		"pin_hist_count{bin=\"LOW\\\\HIGH\"} 1\n" +
		"# HELP pin_plain_total plain help\n" +
		"# TYPE pin_plain_total counter\n" +
		"pin_plain_total 2\n"
	if got := b.String(); got != want {
		t.Errorf("exposition bytes drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestNilInstrumentsAreNoOps: the nil counter and histogram a caller
// without a registry holds ignore writes and read as zero.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(2)
	var h *Histogram
	h.Observe(1)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil instruments read %v, %d, %v; want zeros", c.Value(), h.Count(), h.Sum())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dup", "h")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("dup", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := New()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name should panic")
		}
	}()
	r.Counter("bad-name", "h")
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 10, 3)
	if len(exp) != 3 || exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
	lin := LinearBuckets(0.5, 0.5, 3)
	if len(lin) != 3 || lin[0] != 0.5 || lin[1] != 1 || lin[2] != 1.5 {
		t.Errorf("LinearBuckets = %v", lin)
	}
}

// TestConcurrentUse hammers every metric kind from many goroutines;
// run under -race this is the registry's thread-safety regression test.
func TestConcurrentUse(t *testing.T) {
	r := New()
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := string(rune('a' + g%4))
			for i := 0; i < iters; i++ {
				r.Counter("conc_total", "h").Inc()
				r.CounterVec("conc_vec_total", "h", "l").With(label).Inc()
				r.Gauge("conc_gauge", "h").Add(1)
				r.Histogram("conc_hist", "h", []float64{1, 10}).Observe(float64(i))
				if i%50 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("conc_total", "h").Value(); got != goroutines*iters {
		t.Errorf("concurrent counter = %v, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("conc_hist", "h", []float64{1, 10}).Count(); got != goroutines*iters {
		t.Errorf("concurrent histogram count = %v, want %d", got, goroutines*iters)
	}
}
