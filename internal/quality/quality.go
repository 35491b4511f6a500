// Package quality computes online decision-quality metrics from a run's
// flight recording (internal/timeline): how close the policy's choices
// came to the exhaustive ED² oracle, how well its sensitivity bins
// matched ground truth, how the fine-grain loop behaved, and how much
// the hardware configuration churned.
//
// The analysis is pure measurement over an already-finished timeline —
// it never feeds back into a run — and it is deterministic: analyzing
// the same snapshot with the same engine twice yields identical
// results, so the aggregated statistics served by /v1/stats/quality are
// reproducible for a deterministic workload.
//
// Metric definitions:
//
//   - Oracle gap (the paper's "within ~3% of oracle" headline,
//     Section 7.1): every strideth kernel boundary is re-scored by the
//     exhaustive oracle. Energy and time are summed across the sampled
//     boundaries on both sides — actuals straight off the decision
//     records, oracle values re-simulated at oracle.Decide's choice —
//     and the gap is E·T² at the actual sums over E·T² at the oracle
//     sums, minus one. Aggregating before forming ED² reproduces the
//     paper's run-level metric (Report.ED2 is total energy times total
//     time squared), so exploration boundaries early in a run are
//     diluted exactly as they are in the headline number. 0 means
//     oracle-equal; 0.03 means 3% worse than the bound.
//
//   - Bin confusion: for every boundary whose decision record carries
//     sensitivity bins, the predicted bin of each tunable is compared
//     against ground truth — sensitivity.Measure on the same simulator,
//     binned by the paper's 0.30/0.70 thresholds. Cells count
//     truth→predicted pairs per tunable; Misbinned counts the
//     off-diagonal.
//
//   - FG convergence/dither: the action census (hold/cg/fg/revert/
//     freeze/...), the tail of consecutive holds the run settled into,
//     and the deepest fg→revert dither streak of any kernel.
//
//   - Config churn: hardware state transitions per kernel boundary.
package quality

import (
	"errors"
	"sort"
	"sync"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/oracle"
	"harmonia/internal/power"
	"harmonia/internal/sensitivity"
	"harmonia/internal/timeline"
	"harmonia/internal/workloads"
)

// DefaultMaxSamples bounds how many boundaries per run the oracle-gap
// analysis re-scores; each sampled boundary costs one exhaustive sweep
// (memoized when the engine's simulator is a simcache runner).
const DefaultMaxSamples = 8

// Options configures an Engine.
type Options struct {
	// Sim is the simulator to re-score sampled boundaries on; share the
	// run's memoizing runner so sweeps hit the cache. Required.
	Sim gpusim.Runner
	// Power is the board power model. Required.
	Power *power.Model
	// MaxSamples caps oracle-gap sampling per run: the stride is chosen
	// so at most this many boundaries are re-scored. Zero means
	// DefaultMaxSamples; negative disables the oracle-gap analysis.
	MaxSamples int
	// Workers bounds each oracle sweep's parallelism (0 = GOMAXPROCS).
	Workers int
}

// Engine analyzes timelines. Safe for concurrent use; the ground-truth
// sensitivity bins are measured once per kernel and cached.
type Engine struct {
	sim        gpusim.Runner
	pow        *power.Model
	maxSamples int
	workers    int

	mu    sync.Mutex
	truth map[string]sensitivity.Bins
}

// NewEngine returns a quality engine over the given simulator and power
// model.
func NewEngine(o Options) *Engine {
	max := o.MaxSamples
	if max == 0 {
		max = DefaultMaxSamples
	}
	return &Engine{
		sim:        o.Sim,
		pow:        o.Power,
		maxSamples: max,
		workers:    o.Workers,
		truth:      make(map[string]sensitivity.Bins),
	}
}

// OracleGap is the sampled ED² regret against the exhaustive oracle.
type OracleGap struct {
	// Sampled is how many boundaries were re-scored, every Stride-th.
	Sampled int `json:"sampled"`
	Stride  int `json:"stride"`
	// ActualED2/OracleED2 are E·T² over the sampled boundaries' summed
	// energy and time, at the configurations actually run vs the
	// oracle's choices — the run-level ED² the paper reports, restricted
	// to the sample.
	ActualED2 float64 `json:"actual_ed2"`
	OracleED2 float64 `json:"oracle_ed2"`
	// Gap is ActualED2/OracleED2 - 1 (0 = oracle-equal).
	Gap float64 `json:"gap"`
}

// Cell is one confusion-matrix entry: how often a tunable's true
// sensitivity bin was predicted as another (or the same) bin.
type Cell struct {
	Tunable   string `json:"tunable"`
	Truth     string `json:"truth"`
	Predicted string `json:"predicted"`
	N         int    `json:"n"`
}

// Pair renders the cell's bin pair ("HIGH->MED") — the misbin
// telemetry label.
func (c Cell) Pair() string { return c.Truth + "->" + c.Predicted }

// Confusion is the sensitivity bin confusion matrix of one run.
type Confusion struct {
	// Checks counts (boundary, tunable) comparisons; zero for policies
	// that do not predict sensitivities.
	Checks    int `json:"checks"`
	Misbinned int `json:"misbinned"`
	// Cells hold every observed truth→predicted pair, sorted by
	// (tunable, truth, predicted) for deterministic output.
	Cells []Cell `json:"cells,omitempty"`
}

// FGStats summarizes the controller's action stream.
type FGStats struct {
	// Actions is the per-source census, sorted by source name.
	Actions []timeline.ActionCount `json:"actions,omitempty"`
	// TailHolds is the run's settled tail: consecutive trailing
	// boundaries whose action was a plain hold (or unannotated).
	TailHolds int `json:"tail_holds"`
	// Converged reports that the run ended inside such a tail — the
	// controller had stopped moving the hardware before the run ended.
	Converged bool `json:"converged"`
	// MaxDither is the deepest fg→revert oscillation streak any kernel
	// exhibited.
	MaxDither int `json:"max_dither"`
}

// Churn is the configuration-churn rate.
type Churn struct {
	Transitions int `json:"transitions"`
	Boundaries  int `json:"boundaries"`
	// Rate is transitions per boundary (0 = the hardware never moved).
	Rate float64 `json:"rate"`
}

// Result is the decision-quality analysis of one run.
type Result struct {
	App        string    `json:"app"`
	Policy     string    `json:"policy"`
	Boundaries int       `json:"boundaries"`
	OracleGap  OracleGap `json:"oracle_gap"`
	Confusion  Confusion `json:"confusion"`
	FG         FGStats   `json:"fg"`
	Churn      Churn     `json:"churn"`
}

var errNoInput = errors.New("quality: nil application or snapshot")

// Analyze computes the decision-quality metrics of one run's timeline.
// app must be the application the timeline recorded (its kernels are
// re-simulated for the oracle gap and ground-truth bins).
func (e *Engine) Analyze(app *workloads.Application, snap *timeline.Snapshot) (*Result, error) {
	if e == nil || app == nil || snap == nil {
		return nil, errNoInput
	}
	kernels := make(map[string]*workloads.Kernel, len(app.Kernels))
	for _, k := range app.Kernels {
		kernels[k.Name] = k
	}
	res := &Result{
		App:        snap.App,
		Policy:     snap.Policy,
		Boundaries: len(snap.Decisions) + snap.DroppedDecisions,
	}
	res.OracleGap = e.oracleGap(app, kernels, snap.Decisions)
	res.Confusion = e.confusion(kernels, snap.Decisions)
	res.FG = fgStats(snap.Decisions)
	res.Churn = Churn{
		Transitions: len(snap.Transitions) + snap.DroppedTransitions,
		Boundaries:  res.Boundaries,
	}
	if res.Churn.Boundaries > 0 {
		res.Churn.Rate = float64(res.Churn.Transitions) / float64(res.Churn.Boundaries)
	}
	return res, nil
}

// oracleGap re-scores every strideth boundary against oracle.Decide.
func (e *Engine) oracleGap(app *workloads.Application, kernels map[string]*workloads.Kernel, decs []timeline.Decision) OracleGap {
	if e.maxSamples < 0 || len(decs) == 0 {
		return OracleGap{}
	}
	stride := 1
	if e.maxSamples > 0 && len(decs) > e.maxSamples {
		stride = (len(decs) + e.maxSamples - 1) / e.maxSamples
	}
	orc := oracle.New(e.sim, e.pow, app).WithWorkers(e.workers)
	g := OracleGap{Stride: stride}
	var actE, actT, orcE, orcT float64
	for i := 0; i < len(decs); i += stride {
		d := decs[i]
		k, ok := kernels[d.Kernel]
		if !ok {
			continue
		}
		best := orc.Decide(d.Kernel, d.Iter)
		oe, ot := e.score(k, d.Iter, best)
		actE += d.EnergyJ
		actT += d.TimeS
		orcE += oe
		orcT += ot
		g.Sampled++
	}
	g.ActualED2 = actE * actT * actT
	g.OracleED2 = orcE * orcT * orcT
	if g.OracleED2 > 0 {
		g.Gap = g.ActualED2/g.OracleED2 - 1
	}
	return g
}

// score simulates one invocation at cfg and returns its energy and
// time, reproducing the session's energy accounting (Rails.Card × time)
// so the gap compares like with like.
func (e *Engine) score(k *workloads.Kernel, iter int, cfg hw.Config) (energyJ, timeS float64) {
	r := e.sim.Run(k, iter, cfg)
	rails := e.pow.Rails(cfg, power.Activity{
		VALUBusyFrac:    r.Counters.VALUBusy / 100,
		MemUnitBusyFrac: r.Counters.MemUnitBusy / 100,
		AchievedGBs:     r.AchievedGBs,
	})
	return rails.Card() * r.Time, r.Time
}

// truthFor measures a kernel's ground-truth sensitivity bins, once.
func (e *Engine) truthFor(k *workloads.Kernel) sensitivity.Bins {
	e.mu.Lock()
	b, ok := e.truth[k.Name]
	e.mu.Unlock()
	if ok {
		return b
	}
	m := sensitivity.Measure(e.sim, k)
	b = sensitivity.Bins{
		CUs:     sensitivity.BinOf(m.CUs),
		CUFreq:  sensitivity.BinOf(m.CUFreq),
		MemFreq: sensitivity.BinOf(m.Bandwidth),
	}
	e.mu.Lock()
	e.truth[k.Name] = b
	e.mu.Unlock()
	return b
}

// confusion compares every annotated boundary's predicted bins against
// measured ground truth.
func (e *Engine) confusion(kernels map[string]*workloads.Kernel, decs []timeline.Decision) Confusion {
	counts := make(map[Cell]int)
	var c Confusion
	note := func(tunable, truth, pred string) {
		c.Checks++
		if truth != pred {
			c.Misbinned++
		}
		counts[Cell{Tunable: tunable, Truth: truth, Predicted: pred}]++
	}
	for _, d := range decs {
		if d.Bins == nil {
			continue
		}
		k, ok := kernels[d.Kernel]
		if !ok {
			continue
		}
		truth := e.truthFor(k)
		note("cus", truth.CUs.String(), d.Bins.CUs)
		note("cu_freq", truth.CUFreq.String(), d.Bins.CUFreq)
		note("mem_freq", truth.MemFreq.String(), d.Bins.MemFreq)
	}
	c.Cells = make([]Cell, 0, len(counts))
	for cell, n := range counts {
		cell.N = n
		c.Cells = append(c.Cells, cell) //lint:ignore nondeterminism cells are sorted before use
	}
	sort.Slice(c.Cells, func(i, j int) bool {
		a, b := c.Cells[i], c.Cells[j]
		if a.Tunable != b.Tunable {
			return a.Tunable < b.Tunable
		}
		if a.Truth != b.Truth {
			return a.Truth < b.Truth
		}
		return a.Predicted < b.Predicted
	})
	return c
}

// fgStats digests the action stream.
func fgStats(decs []timeline.Decision) FGStats {
	st := FGStats{Actions: timeline.Census(decs)}
	// Dither streaks are per kernel: an fg step answered by a revert
	// deepens the streak; a hold or cg jump resets it.
	streak := make(map[string]int)
	prev := make(map[string]string)
	lastMove := -1
	for i, d := range decs {
		switch d.Source {
		case "cg", "fg", "revert", "freeze":
			lastMove = i
		}
		switch d.Source {
		case "revert", "freeze":
			if prev[d.Kernel] == "fg" || prev[d.Kernel] == "revert" || prev[d.Kernel] == "freeze" {
				streak[d.Kernel]++
			} else {
				streak[d.Kernel] = 1
			}
			if streak[d.Kernel] > st.MaxDither {
				st.MaxDither = streak[d.Kernel]
			}
		case "hold", "cg":
			streak[d.Kernel] = 0
		}
		prev[d.Kernel] = d.Source
	}
	st.TailHolds = len(decs) - 1 - lastMove
	if lastMove < 0 {
		st.TailHolds = len(decs)
	}
	st.Converged = len(decs) > 0 && st.TailHolds > 0
	return st
}
