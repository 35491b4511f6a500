// Command perfbench is the repository's layered benchmark. It runs one
// named workload against the in-process Harmonia stack and prints, as
// its last line, one JSON object: whether every checked output was
// right, how many operations it attempted and how many failed, and its
// metrics. With -trace 0 it times the workload end to end; with
// -trace 1 it runs the traced pass, which times calls into each layer
// from outside. The line before the result records the machine and the
// inputs.
//
// run.py builds and runs it, keeping Go's caches inside the checkout:
//
//	python3 perfbench/run.py --workload lib-runs --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads and the metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"time"

	"harmonia"
	"harmonia/internal/experiments"
	"harmonia/internal/serve"
)

// How many times an end-to-end pass builds its set-up; setup_s is the
// median of them. A serve set-up takes over a second; a library set-up,
// under a tenth of one, takes more repeats to be as steady.
const (
	serveSetupRepeats = 3
	setupRepeats      = 9
)

// Operation counts per second of -seconds. A run issues a fixed number
// of operations, not operations for a fixed time: per-run cost rises
// with retained state, so a fixed duration would let a faster commit
// pile up more state and be charged for it. The counts are sized so a
// run measures for about -seconds on a 2-CPU machine.
const (
	runsPerSecond    = 500
	libRunsPerSecond = 7000
	readsPerSecond   = 1500
	suitesPerSecond  = 10
	// walkPerSecond sizes the traced pass's sample of runs.
	walkPerSecond = 6
)

// Minimum operation counts, so that the tail percentile a workload
// reports (p99 of each segment on the closed-loop workloads, p90 of the
// run on suite-cold) has ten samples beyond it.
const (
	minServeOps = segments * 1000
	minSuiteOps = 100
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	// clients is the closed-loop client count and the suite's worker
	// budget: the machine's CPU count.
	clients int
	// start is the process start; the first set-up is timed from it.
	start time.Time
}

// workload is one named traffic mix with its two passes.
type workload struct {
	endToEnd, traced func(context.Context, config) (*outcome, error)
}

var benchWorkloads = map[string]workload{
	"serve-runs":  {endToEnd: serveRunsPass, traced: tracedServeRuns},
	"serve-reads": {endToEnd: serveReadsPass, traced: tracedServeReads},
	"lib-runs":    {endToEnd: libRunsPass, traced: tracedServeRuns},
	"suite-cold":  {endToEnd: suiteColdPass, traced: tracedSuiteCold},
}

func main() {
	os.Exit(run(time.Now(), os.Args[1:]))
}

func run(start time.Time, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "serve-runs, serve-reads, lib-runs or suite-cold")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "sizes the fixed operation count: about this many seconds of measurement on a 2-CPU machine")
	traced := fs.Int("trace", 0, "0 times the workload end to end; 1 runs the traced per-layer pass")
	commit := fs.String("commit", "unknown", "source revision recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := benchWorkloads[*name]
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload serve-runs|serve-reads|lib-runs|suite-cold, -seconds >= 1, -trace 0|1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, clients: runtime.NumCPU(), start: start}
	pass := w.endToEnd
	if *traced == 1 {
		pass = w.traced
	}
	out, err := pass(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for i, f := range out.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: and %d more failures\n", len(out.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	facts, err := json.Marshal(struct {
		Machine      machine `json:"machine"`
		Workload     string  `json:"workload"`
		Seed         int64   `json:"seed"`
		HeldOutSeed  int64   `json:"held_out_seed"`
		Trace        int     `json:"trace"`
		Clients      int     `json:"clients"`
		RetentionCap int     `json:"retention_cap"`
	}{machineFacts(*commit), *name, *seed, heldOutSeed, *traced, cfg.clients, retentionCap})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding machine facts:", err)
		return 1
	}
	failed := out.failed()
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, out.attempted, failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", facts, res)
	if failed > 0 {
		return 1
	}
	return 0
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one pass produced: the operations and checks it
// attempted, the failures it found, and its metrics.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]metric
}

// set records one metric.
func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// failed counts failures, at most one per attempt.
func (o *outcome) failed() int {
	return min(len(o.failures), o.attempted)
}

// endToEnd records the end-to-end metrics.
func (o *outcome) endToEnd(setupS, p50MS, tailMS, opsPerS, gainPct, gapPts float64) {
	o.set("setup_s", "s", setupS)
	o.set("op_p50_ms", "ms", p50MS)
	o.set("op_tail_ms", "ms", tailMS)
	o.set("ops_per_s", "1/s", opsPerS)
	o.set("success_rate", "ratio", 1-float64(o.failed())/float64(o.attempted))
	o.set("max_rss_mb", "MB", maxRSSMB())
	o.set("ed2_gain_harmonia_pct", "%", gainPct)
	o.set("oracle_gap_pts", "pts", gapPts)
}

// opsFor is a run's fixed operation count.
func opsFor(seconds, perSecond, least int) int {
	return max(seconds*perSecond, least)
}

// setupServe builds the serve stack serveSetupRepeats times, keeping the
// last, and returns it with the median set-up time: System build,
// predictor training, server start and the prefill to the retention
// cap. The first set-up is timed from process start. Each earlier stack
// is closed and collected before the next is built, so only one
// registry is ever live.
func setupServe(cfg config) (*stack, float64, error) {
	var (
		st    *stack
		times []float64
	)
	for i := 0; i < serveSetupRepeats; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, 0, err
			}
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		}
		s, err := newStack(cfg.clients)
		if err != nil {
			return nil, 0, err
		}
		if err := s.prefill(retentionCap, cfg.clients); err != nil {
			s.closeLogged()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return st, median(times), nil
}

// serveRunsPass times seeded POST /v1/runs (wait=true) against the
// prefilled stack and checks a seeded sample of served ED² values
// against library runs.
func serveRunsPass(ctx context.Context, cfg config) (*outcome, error) {
	st, setupS, err := setupServe(cfg)
	if err != nil {
		return nil, err
	}
	defer st.closeLogged()
	gain, gap, err := headline(st.runs)
	if err != nil {
		return nil, err
	}
	n := opsFor(cfg.seconds, runsPerSecond, minServeOps)
	reqs := runRequests(cfg.seed, streamRuns, n)
	mask := sampleMask(cfg.seed, n)
	tm := newTimings(n)
	errs := make([]string, n)
	served := make([]float64, n)
	bufs := make([]bytes.Buffer, cfg.clients)
	runtime.GC() // start timing from the same heap state on every run
	t0 := time.Now()
	closedLoop(n, cfg.clients, func(c, i int) {
		begin := time.Since(t0)
		code, d, err := st.post(reqs[i], &bufs[c])
		tm.record(i, begin, time.Since(t0), d)
		if errs[i] = check(code, err); errs[i] != "" || !mask[i] {
			return
		}
		run, err := decodeRun(bufs[c].Bytes())
		if err != nil {
			errs[i] = err.Error()
			return
		}
		served[i] = run.Report.ED2
	})
	out := &outcome{attempted: n}
	lib := newLibrary()
	for i, req := range reqs {
		if errs[i] != "" {
			out.fail("POST %s: %s", describe(req), errs[i])
			continue
		}
		if !mask[i] {
			continue
		}
		want, err := lib.ed2(ctx, req)
		if err != nil {
			return nil, err
		}
		if !sameBits(served[i], want) {
			out.fail("POST %s: served ed2 %v, library %v", describe(req), served[i], want)
		}
	}
	p50, tail, rate := tm.segmented(0.99)
	out.endToEnd(setupS, p50, tail, rate, gain, gap)
	return out, nil
}

// serveReadsPass times seeded GETs over the prefilled runs, with no
// writes, and checks a seeded sample of served reports against the
// prefill's and the library's ED².
func serveReadsPass(ctx context.Context, cfg config) (*outcome, error) {
	st, setupS, err := setupServe(cfg)
	if err != nil {
		return nil, err
	}
	defer st.closeLogged()
	gain, gap, err := headline(st.runs)
	if err != nil {
		return nil, err
	}
	n := opsFor(cfg.seconds, readsPerSecond, minServeOps)
	ops := readOps(cfg.seed, n, len(st.runs))
	mask := sampleMask(cfg.seed, n)
	tm := newTimings(n)
	errs := make([]string, n)
	served := make([]float64, n)
	bufs := make([]bytes.Buffer, cfg.clients)
	runtime.GC() // start timing from the same heap state on every run
	t0 := time.Now()
	closedLoop(n, cfg.clients, func(c, i int) {
		kind := readKinds[ops[i].kind]
		begin := time.Since(t0)
		code, d, err := st.get(kind.path(st.runs[ops[i].target].id), &bufs[c])
		tm.record(i, begin, time.Since(t0), d)
		if errs[i] = check(code, err); errs[i] == "" && bufs[c].Len() == 0 {
			errs[i] = "empty body"
		}
		if errs[i] != "" || !mask[i] || kind.name != "run" {
			return
		}
		run, err := decodeRun(bufs[c].Bytes())
		if err != nil {
			errs[i] = err.Error()
			return
		}
		served[i] = run.Report.ED2
	})
	out := &outcome{attempted: n}
	lib := newLibrary()
	for i, op := range ops {
		kind, run := readKinds[op.kind], st.runs[op.target]
		if errs[i] != "" {
			out.fail("GET %s of %s: %s", kind.name, run.id, errs[i])
			continue
		}
		if !mask[i] || kind.name != "run" {
			continue
		}
		want, err := lib.ed2(ctx, run.req)
		if err != nil {
			return nil, err
		}
		if !sameBits(served[i], run.ed2) || !sameBits(served[i], want) {
			out.fail("GET %s (%s): ed2 %v, at submission %v, library %v",
				run.id, describe(run.req), served[i], run.ed2, want)
		}
	}
	p50, tail, rate := tm.segmented(0.99)
	out.endToEnd(setupS, p50, tail, rate, gain, gap)
	return out, nil
}

// libRunsPass times serve-runs' request sequence as library calls:
// System.RunContext on one shared System with a warm memo, no HTTP and
// no recorders. Set-up builds the System, trains its predictor and runs
// the fault-free matrix once, which warms the memo and yields the
// headline metrics. A seeded sample is checked against a separate
// System.
func libRunsPass(ctx context.Context, cfg config) (*outcome, error) {
	var (
		sys    *harmonia.System
		matrix []servedRun
		times  []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		}
		s := harmonia.NewSystem(harmonia.WithSimCache())
		if _, err := s.TrainedPredictor(); err != nil {
			return nil, fmt.Errorf("pretraining predictor: %w", err)
		}
		runs := make([]servedRun, 0, len(matrixRequests()))
		for _, req := range matrixRequests() {
			v, err := runED2(ctx, s, req)
			if err != nil {
				return nil, err
			}
			runs = append(runs, servedRun{req: req, ed2: v})
		}
		times = append(times, time.Since(t0).Seconds())
		sys, matrix = s, runs
	}
	gain, gap, err := headline(matrix)
	if err != nil {
		return nil, err
	}
	n := opsFor(cfg.seconds, libRunsPerSecond, minServeOps)
	reqs := runRequests(cfg.seed, streamRuns, n)
	mask := sampleMask(cfg.seed, n)
	tm := newTimings(n)
	errs := make([]string, n)
	got := make([]float64, n)
	runtime.GC() // start timing from the same heap state on every run
	t0 := time.Now()
	closedLoop(n, cfg.clients, func(c, i int) {
		begin := time.Since(t0)
		v, err := runED2(ctx, sys, reqs[i])
		end := time.Since(t0)
		tm.record(i, begin, end, end-begin)
		if err != nil {
			errs[i] = err.Error()
			return
		}
		got[i] = v
	})
	out := &outcome{attempted: n}
	lib := newLibrary()
	for i, req := range reqs {
		if errs[i] != "" {
			out.fail("run %s: %s", describe(req), errs[i])
			continue
		}
		if !mask[i] {
			continue
		}
		want, err := lib.ed2(ctx, req)
		if err != nil {
			return nil, err
		}
		if !sameBits(got[i], want) {
			out.fail("run %s: ed2 %v, on a separate System %v", describe(req), got[i], want)
		}
	}
	p50, tail, rate := tm.segmented(0.99)
	out.endToEnd(median(times), p50, tail, rate, gain, gap)
	return out, nil
}

// suiteColdPass times cold five-policy suites back to back. Set-up runs
// one suite setupRepeats times; the first one's Summary is the
// reference every later suite must reproduce bit for bit.
func suiteColdPass(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	var (
		ref    experiments.Summary
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		}
		sum, _, _, err := coldSuite(ctx, cfg.clients)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			ref = sum
		} else if !bitEqual(sum, ref) {
			out.fail("set-up suite %d: summary differs from the run's first", i)
		}
	}
	n := opsFor(cfg.seconds, suitesPerSecond, minSuiteOps)
	out.attempted = n
	lat := make([]float64, n)
	runtime.GC() // start timing from the same heap state on every run
	start := time.Now()
	for i := range lat {
		t0 := time.Now()
		sum, _, _, err := coldSuite(ctx, cfg.clients)
		lat[i] = ms(time.Since(t0))
		switch {
		case err != nil:
			out.fail("suite %d: %v", i, err)
		case !bitEqual(sum, ref):
			out.fail("suite %d: summary differs from the run's first", i)
		}
	}
	wall := time.Since(start)
	out.endToEnd(median(setups), quantile(lat, 0.5), quantile(lat, 0.9), float64(n)/wall.Seconds(),
		ref.ED2Harmonia*100, ref.OracleGapHarmonia*100)
	return out, nil
}

// library runs requests through the library, outside any server: a
// System.RunContext of the same app, policy and fault profile on a
// System of its own.
type library struct {
	sys *harmonia.System
	ed  map[string]float64
}

func newLibrary() *library {
	return &library{sys: harmonia.NewSystem(harmonia.WithSimCache()), ed: make(map[string]float64)}
}

// ed2 returns the library run's ED² for req.
func (l *library) ed2(ctx context.Context, req serve.RunRequest) (float64, error) {
	key := describe(req)
	if v, ok := l.ed[key]; ok {
		return v, nil
	}
	v, err := runED2(ctx, l.sys, req)
	if err != nil {
		return 0, err
	}
	l.ed[key] = v
	return v, nil
}

// runED2 runs req on sys as the serve layer would, without recorders,
// and returns the report's ED².
func runED2(ctx context.Context, sys *harmonia.System, req serve.RunRequest) (float64, error) {
	app := harmonia.App(req.App)
	pol, err := buildPolicy(sys, req, app)
	if err != nil {
		return 0, err
	}
	rep, err := sys.RunContext(ctx, app, pol, runOptions(req)...)
	if err != nil {
		return 0, fmt.Errorf("library run of %s: %w", describe(req), err)
	}
	return rep.ED2(), nil
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// bitEqual reports whether a and b are deeply equal with every float
// compared by its bits.
func bitEqual(a, b any) bool { return valuesBitEqual(reflect.ValueOf(a), reflect.ValueOf(b)) }

func valuesBitEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return sameBits(a.Float(), b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return valuesBitEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !valuesBitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !valuesBitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !valuesBitEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	}
	return false // funcs and channels: never part of a report or summary
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// machine is the hardware and build a result was measured on.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func machineFacts(commit string) machine {
	return machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// cpuModel is the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
