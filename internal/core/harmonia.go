// Package core implements Harmonia, the paper's contribution: a two-level
// coordinated power-management policy for the GPU and its memory system
// (Section 5, Algorithm 1).
//
// At every kernel boundary the controller:
//
//  1. Monitors — samples the kernel's performance counters.
//  2. Predicts — computes per-tunable sensitivities with the linear
//     models of Table 3 and bins them HIGH/MED/LOW.
//  3. Coarse-grain (CG) tunes — when the bins change, jumps each tunable
//     to the empirically fixed value of its bin, bringing the hardware to
//     the vicinity of the balance point. If the bin change immediately
//     follows a configuration change made by the controller itself, the
//     previous decision is reverted instead: the sensitivity change was
//     an artifact of the configuration change, not the workload
//     (Section 5.2).
//  4. Fine-grain (FG) tunes — when the bins are stable, follows the
//     gradient of machine-level VALU utilization (the paper's "gradient
//     of core utilization" performance proxy): steps tunables toward
//     lower power while the gradient is non-negative, reverts the
//     responsible tunable when performance degrades, counts dithering,
//     and converges to the last zero-gradient state after too many
//     oscillations.
//
// Per-kernel state persists across iterations, so iterative HPC
// applications start each kernel at its last best configuration
// (Section 5.1).
package core

import (
	"math"

	"harmonia/internal/counters"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/sensitivity"
	"harmonia/internal/timeline"
)

// Options configures a Controller.
type Options struct {
	// Predictor supplies the sensitivity models; nil trains the default
	// predictor on the standard workload suite.
	Predictor *sensitivity.Predictor
	// Tunables restricts which hardware tunables the controller manages;
	// empty means all three. New copies the list, counting a repeated
	// tunable once (at its first occurrence) and dropping values outside
	// [0, hw.NumTunables), which name no tunable: a list of only such
	// values manages nothing. The paper's compute-frequency-only study
	// (Section 7.2) is this controller with only TunableCUFreq.
	Tunables []hw.Tunable
	// DisableFG turns off the fine-grain feedback loop, yielding the
	// paper's "CG" configuration (Figures 10-13).
	DisableFG bool
	// DisableHardening turns off the hardening layer that protects the
	// loop from degraded telemetry (see guard), yielding the naive
	// controller of the robustness study. On a clean platform the layer
	// never fires, so the hardened and naive controllers are bit-for-bit
	// identical.
	DisableHardening bool
	// MaxDither is the number of oscillations of one tunable the FG loop
	// tolerates before freezing it at the last good state. Zero means
	// the default of 1.
	MaxDither int
	// SmoothAlpha is the exponential-moving-average weight the
	// monitoring block gives the newest counter sample when maintaining
	// per-kernel history (Section 5.1). Zero means the default of 0.3.
	SmoothAlpha float64
	// Deadband is the relative change in the utilization proxy treated
	// as "no change" (Algorithm 1's gradient-zero case). Zero means the
	// default of 0.5%.
	Deadband float64
}

// The hardening layer's tuning (see guard). All of it reacts only to
// evidence of faults — samples that contradict per-kernel history or a
// DPM readback that contradicts the command — so on clean telemetry the
// hardened controller takes exactly the decisions the naive one does.
const (
	// outlierK is the MAD multiplier of the outlier test: a sample
	// whose VALUBusy or MemUnitBusy deviates more than
	// max(outlierK·MAD, outlierFloor) from the per-kernel history at the
	// same configuration is rejected.
	outlierK = 6
	// outlierFloor is the absolute deviation (percentage points) below
	// which a sample is never an outlier, guarding against a zero MAD on
	// deterministic histories.
	outlierFloor = 8
	// historyWindow is how many accepted samples per (kernel,
	// configuration) the outlier test remembers.
	historyWindow = 12
	// minHistory is how many samples the window needs before the outlier
	// test may reject.
	minHistory = 5
	// verifyRetries is how many times a commanded configuration that did
	// not take effect (per the sample's DPM-state readback) is re-issued
	// before the controller adopts the actual hardware state.
	verifyRetries = 2
	// watchdogM is how many consecutive unreliable samples (outliers or
	// failed transitions) trip the degradation watchdog.
	watchdogM = 3
	// recoverN is how many consecutive clean samples end degraded mode.
	recoverN = 2
)

// cgTarget maps a sensitivity bin to the grid level a tunable is set to
// during coarse-grain tuning: the "empirically fixed high, medium, or low
// value" of Section 5.2, grounded in the oracle's per-kernel optima on
// this platform (DESIGN.md §6). Highly sensitive tunables get their
// maximum; LOW-bin tunables jump most of the way down and the FG loop
// walks the remaining steps to the floor when that proves free (Sort's
// memory bus reaches 475 MHz this way); MED lands high enough that a
// misbinned kernel is not badly hurt before FG reacts.
func cgTarget(t hw.Tunable, b sensitivity.Bin) int {
	switch b {
	case sensitivity.High:
		return t.Levels() - 1
	case sensitivity.Med:
		switch t {
		case hw.TunableCUs:
			return 6 // 28 CUs
		case hw.TunableCUFreq:
			return 6 // 900 MHz
		default:
			return 5 // 1225 MHz memory
		}
	default: // Low
		switch t {
		case hw.TunableCUs:
			return 3 // 16 CUs
		case hw.TunableCUFreq:
			return 5 // 800 MHz
		default:
			return 3 // 925 MHz memory; FG walks the rest to the floor
		}
	}
}

// ActionKind classifies one controller decision; its String is the
// Source of the boundary's TimelineDecision.
type ActionKind int

const (
	// ActionHold: no change this boundary.
	ActionHold ActionKind = iota
	// ActionCG: coarse-grain jump to the bin targets.
	ActionCG
	// ActionFG: fine-grain downward step.
	ActionFG
	// ActionRevert: a change was undone (degradation or artificial
	// sensitivity shift).
	ActionRevert
	// ActionFreeze: a tunable was pinned after exceeding the dithering
	// budget.
	ActionFreeze
	// ActionReject: a monitoring sample failed the outlier test and was
	// discarded before reaching the EMA; the configuration held.
	ActionReject
	// ActionRetry: the sample's DPM readback shows the commanded
	// configuration did not take effect; the command was re-issued.
	ActionRetry
	// ActionDegrade: the watchdog tripped after too many consecutive
	// unreliable samples; FG froze and the kernel fell back to its last
	// known-good configuration.
	ActionDegrade
	// ActionRecover: telemetry stabilized and the controller left
	// degraded mode.
	ActionRecover
)

func (a ActionKind) String() string {
	switch a {
	case ActionHold:
		return "hold"
	case ActionCG:
		return "cg"
	case ActionFG:
		return "fg"
	case ActionRevert:
		return "revert"
	case ActionFreeze:
		return "freeze"
	case ActionReject:
		return "reject"
	case ActionRetry:
		return "retry"
	case ActionDegrade:
		return "degrade"
	case ActionRecover:
		return "recover"
	default:
		return "unknown"
	}
}

// Controller is the Harmonia policy. It implements policy.Policy.
type Controller struct {
	opts     Options
	pred     *sensitivity.Predictor
	tunables []hw.Tunable
	kernels  map[string]*kernelState
}

// kernelState is the per-kernel controller memory (Section 5.1: "use each
// kernel's historical data from previous iterations to predict hardware
// configurations for the same kernel in the next iteration").
type kernelState struct {
	next hw.Config // configuration for the next invocation

	haveHist bool
	hist     counters.Set // EWMA-smoothed counter history for this kernel

	haveBins bool
	bins     sensitivity.Bins // last accepted (non-artificial) bins
	pending  sensitivity.Bins // candidate new bins awaiting confirmation
	pendingN int              // consecutive observations of pending
	prevRaw  sensitivity.Bins // raw bins of the immediately previous iteration

	haveProxy bool
	proxy     float64 // utilization proxy of the previous invocation

	prev      hw.Config    // configuration of the previous invocation
	lastMoved []hw.Tunable // tunables we changed between prev and next
	lastCG    bool         // whether that change was a CG jump

	isolate  []hw.Tunable         // single-step blame-isolation queue
	dither   [hw.NumTunables]int  // failed FG steps per tunable
	frozen   [hw.NumTunables]bool // tunables pinned after dithering
	lastGood hw.Config

	lastKind ActionKind // classification of the most recent decision

	// Hardening-layer state. obs keeps, per configuration the kernel ran
	// at, a bounded window of accepted VALUBusy/MemUnitBusy samples: the
	// per-kernel history the outlier test measures deviation against. A
	// kernel visits few configurations, so a slice searched by
	// configuration serves.
	obs        []*obsWindow
	cmdRetries int  // consecutive re-issues of the current command
	unreliable int  // consecutive unreliable samples (watchdog input)
	cleanRun   int  // consecutive clean samples while degraded
	degraded   bool // watchdog tripped; FG frozen, holding lastGood
}

// obsWindow is the outlier test's history at one configuration.
type obsWindow struct {
	cfg    hw.Config
	vb, mb window
}

// window holds the last historyWindow samples of one counter twice: in
// arrival order, a ring whose oldest sample leaves first, and in
// sort.Float64s order (NaN first, then ascending; equal samples, which
// no verdict tells apart, in arrival order), kept by inserting each
// sample as it arrives, so the outlier test reads a median without
// sorting.
type window struct {
	ring   [historyWindow]float64
	sorted [historyWindow]float64
	n      int // samples held
	next   int // ring slot of the next sample: the oldest once full
}

// push adds v, evicting the oldest sample from a full window.
func (w *window) push(v float64) {
	if w.n == historyWindow {
		// Samples with the same bits are interchangeable, so removing
		// the first one that matches the oldest removes the oldest.
		old := math.Float64bits(w.ring[w.next])
		i := 0
		for math.Float64bits(w.sorted[i]) != old {
			i++
		}
		copy(w.sorted[i:], w.sorted[i+1:w.n])
		w.n--
	}
	w.ring[w.next] = v
	w.next = (w.next + 1) % historyWindow
	// One insertion-sort step: v goes after every sample it does not
	// sort before.
	i := w.n
	for ; i > 0 && less(v, w.sorted[i-1]); i-- {
		w.sorted[i] = w.sorted[i-1]
	}
	w.sorted[i] = v
	w.n++
}

// less is sort.Float64s' order: NaN before every number.
func less(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// exceeds reports whether v deviates from the window's median by more
// than max(outlierK·MAD, outlierFloor). That threshold is never below
// the floor, so the MAD is computed only for a deviation past it.
func (w *window) exceeds(v float64) bool {
	med := middle(w.sorted[:w.n])
	d := math.Abs(v - med)
	return d > outlierFloor && d > outlierK*w.mad(med)
}

// mad returns the median absolute deviation of the window about med,
// taking the deviations in the order sort.Float64s would give them.
// Walking outward from med — down through the samples below it, up
// through the rest — meets non-decreasing deviations, so merging the two
// walks orders them. NaN deviations, of NaN samples or of a sample equal
// to an infinite median, go first.
func (w *window) mad(med float64) float64 {
	var dev, down, up [historyWindow]float64
	k, nd, nu := 0, 0, 0
	for _, x := range w.sorted[:w.n] {
		switch d := math.Abs(x - med); {
		case math.IsNaN(d):
			dev[k] = d
			k++
		case x < med:
			down[nd] = d
			nd++
		default:
			up[nu] = d
			nu++
		}
	}
	for i, j := nd-1, 0; i >= 0 || j < nu; k++ {
		if j == nu || (i >= 0 && down[i] <= up[j]) {
			dev[k] = down[i]
			i--
		} else {
			dev[k] = up[j]
			j++
		}
	}
	return middle(dev[:k])
}

// middle returns the median of sorted samples.
func middle(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// New returns a Harmonia controller.
func New(opts Options) *Controller {
	pred := opts.Predictor
	if pred == nil {
		pred = sensitivity.DefaultPredictor()
	}
	if opts.MaxDither <= 0 {
		opts.MaxDither = 1
	}
	if opts.Deadband <= 0 {
		opts.Deadband = 0.005
	}
	if opts.SmoothAlpha <= 0 || opts.SmoothAlpha > 1 {
		opts.SmoothAlpha = 0.3
	}
	return &Controller{
		opts:     opts,
		pred:     pred,
		tunables: managed(opts.Tunables),
		kernels:  make(map[string]*kernelState),
	}
}

// managed returns the tunables a controller manages given
// Options.Tunables: all three for an empty list, otherwise a copy of the
// list without repeats (the first occurrence stays) and without values
// that name no tunable.
func managed(ts []hw.Tunable) []hw.Tunable {
	if len(ts) == 0 {
		return hw.Tunables()
	}
	var seen [hw.NumTunables]bool
	out := make([]hw.Tunable, 0, len(ts))
	for _, t := range ts {
		if t < 0 || t >= hw.NumTunables || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}

// NewComputeOnly returns the compute-frequency-and-voltage-scaling-only
// policy of Section 7.2's study ("compute frequency and voltage scaling
// alone achieve only an average ED2 gain of 3%").
func NewComputeOnly(pred *sensitivity.Predictor) *Controller {
	return New(Options{Predictor: pred, Tunables: []hw.Tunable{hw.TunableCUFreq}})
}

// Name implements policy.Policy.
func (c *Controller) Name() string {
	switch {
	case c.opts.DisableFG:
		return "harmonia-cg"
	case len(c.tunables) == 1 && c.tunables[0] == hw.TunableCUFreq:
		return "compute-dvfs-only"
	default:
		return "harmonia"
	}
}

func (c *Controller) state(kernel string) *kernelState {
	st, ok := c.kernels[kernel]
	if !ok {
		// Before its first observation a kernel runs at the baseline
		// maximum configuration.
		st = &kernelState{
			next:     hw.MaxConfig(),
			prev:     hw.MaxConfig(),
			lastGood: hw.MaxConfig(),
		}
		c.kernels[kernel] = st
	}
	return st
}

// Decide implements policy.Policy.
func (c *Controller) Decide(kernel string, _ int) hw.Config {
	return c.state(kernel).next
}

// TimelineDecision implements timeline.Annotator: queried by the
// session right after Observe, it classifies the boundary just
// processed — the action taken (hold/cg/fg/revert/freeze/...), the
// sensitivity bins in effect, and the machine-utilization proxy that
// drove the decision. Pure observation: it only reads state Observe
// already produced.
func (c *Controller) TimelineDecision(kernel string, _ int) (timeline.Detail, bool) {
	st, ok := c.kernels[kernel]
	if !ok {
		return timeline.Detail{}, false
	}
	return timeline.Detail{
		Source:   st.lastKind.String(),
		Bins:     st.bins,
		HaveBins: st.haveBins,
		Proxy:    st.proxy,
	}, true
}

// Observe implements policy.Policy: one step of Algorithm 1, fronted
// (unless DisableHardening) by the hardening layer of guard.
func (c *Controller) Observe(kernel string, _ int, res gpusim.Result) {
	st := c.state(kernel)
	if !c.opts.DisableHardening && c.guard(st, &res) {
		return
	}
	cur := res.Config

	// Monitoring block: fold the new sample into the kernel's history
	// (Section 5.1) and predict sensitivities from the smoothed view.
	if !st.haveHist {
		st.hist = res.Counters
		st.haveHist = true
	} else {
		st.hist = st.hist.Blend(res.Counters, c.opts.SmoothAlpha)
	}
	bins := c.binsFor(st.hist)
	proxy := gpusim.MachineUtilization(res.Counters, cur)
	rawStable := st.haveBins && bins == st.prevRaw
	st.lastKind = ActionHold
	defer func() {
		st.prev = cur
		st.proxy = proxy
		st.haveProxy = true
		st.prevRaw = bins
	}()

	// First observation of this kernel: adopt the bins and take the
	// initial coarse-grain decision.
	if !st.haveBins {
		st.bins = bins
		st.haveBins = true
		st.lastGood = cur
		c.applyCG(st, cur, bins)
		return
	}

	if bins != st.bins {
		if len(st.lastMoved) > 0 {
			// The sensitivity change immediately follows our own
			// configuration change: treat it as artificial and revert
			// the previous decision (Algorithm 1). The accepted bins
			// stay as they were.
			st.pendingN = 0
			c.revertTo(st, cur, st.prev, st.lastMoved)
			return
		}
		// Candidate phase change: require the new bins to persist for a
		// second observation before acting, so that single-iteration
		// flickers (common in phase-heavy kernels such as Graph500's
		// BFS) do not trigger spurious coarse-grain jumps.
		if bins != st.pending || st.pendingN == 0 {
			st.pending = bins
			st.pendingN = 1
			st.next = cur
			return
		}
		// Confirmed application phase change: re-run coarse-grain tuning.
		st.pendingN = 0
		st.bins = bins
		c.resetFG(st)
		c.applyCG(st, cur, bins)
		return
	}
	st.pendingN = 0

	// Bins stable: fine-grain tuning on the utilization gradient. Per
	// Section 5.2, FG only acts when the sensitivities have not changed
	// between two subsequent iterations — during rapid phase churn the
	// loop holds rather than chase a moving target. Degradation caused
	// by our own last move is still repaired immediately.
	if c.opts.DisableFG || !st.haveProxy {
		st.lastMoved = nil
		st.lastCG = false
		st.next = cur
		return
	}
	degradedAfterMove := len(st.lastMoved) > 0 && proxy < st.proxy-c.opts.Deadband*st.proxy
	if !rawStable && !degradedAfterMove {
		st.lastMoved = nil
		st.lastCG = false
		st.next = cur
		return
	}
	c.fineGrain(st, cur, proxy)
}

// guard is the hardening layer run before Algorithm 1 sees a sample. It
// returns true when it consumed the sample: the observation was an
// outlier, the commanded configuration did not take effect, or the
// kernel is in (or just left) degraded mode. Clean samples on a clean
// platform fall straight through — guard then only records history — so
// the hardened controller's decisions are bit-for-bit those of the
// naive one until a fault is actually observed.
func (c *Controller) guard(st *kernelState, res *gpusim.Result) bool {
	commanded := st.next
	mismatch := res.Config != commanded
	outlier := !mismatch && c.isOutlier(st, res)
	unreliable := mismatch || outlier

	if st.degraded {
		// Degraded mode: hold the last known-good configuration, take no
		// decisions, and watch for telemetry to stabilize.
		if mismatch {
			// The platform will not run what we hold (stuck DPM,
			// persistent throttle). Holding a configuration that never
			// latches would block recovery forever — adopt the actual
			// hardware state as the hold point instead; once readbacks
			// match it, samples count as clean again.
			st.lastGood = res.Config
			st.cleanRun = 0
		} else if unreliable {
			st.cleanRun = 0
		} else {
			st.cleanRun++
			c.pushObs(st, res)
		}
		st.next = st.lastGood
		if st.cleanRun >= recoverN {
			st.degraded = false
			st.unreliable, st.cleanRun, st.cmdRetries = 0, 0, 0
			// Resume with a clean slate: no pending move to blame and no
			// stale proxy baseline from before the fault burst.
			st.lastMoved, st.lastCG = nil, false
			st.haveProxy = false
			st.lastKind = ActionRecover
			return true
		}
		st.lastKind = ActionDegrade
		return true
	}

	if !unreliable {
		st.unreliable = 0
		st.cmdRetries = 0
		c.pushObs(st, res)
		return false
	}

	st.unreliable++
	if mismatch {
		if st.cmdRetries < verifyRetries {
			// The DPM readback contradicts the command: re-issue it
			// rather than interpret a gradient measured at the wrong
			// operating point.
			st.cmdRetries++
			st.next = commanded
			st.lastKind = ActionRetry
			return true
		}
		// Retries exhausted: the transition genuinely is not taking
		// (stuck DPM, persistent throttle). Adopt the hardware's actual
		// state, clearing move blame — our intended change never ran.
		// Adoption resolves the discrepancy, so it ends the unreliable
		// streak rather than feeding the watchdog: future readbacks at
		// the adopted configuration will match what we command.
		st.cmdRetries = 0
		st.unreliable = 0
		st.lastMoved, st.lastCG = nil, false
		st.next = res.Config
		st.lastKind = ActionHold
		return true
	}

	if st.unreliable >= watchdogM {
		// Telemetry has been unreliable for M consecutive samples: freeze
		// FG and fall back to the last configuration that demonstrably
		// performed (Section 5.2's safety intent, extended to faults).
		st.degraded = true
		st.cleanRun = 0
		st.lastMoved, st.lastCG = nil, false
		st.next = st.lastGood
		st.lastKind = ActionDegrade
		return true
	}

	// Outlier: discard the sample before it reaches the EMA or the
	// gradient, and hold.
	st.next = commanded
	st.lastKind = ActionReject
	return true
}

// obsAt returns the kernel's outlier history at cfg, or nil.
func (st *kernelState) obsAt(cfg hw.Config) *obsWindow {
	for _, w := range st.obs {
		if w.cfg == cfg {
			return w
		}
	}
	return nil
}

// pushObs folds an accepted sample into the per-configuration history
// the outlier test uses.
func (c *Controller) pushObs(st *kernelState, res *gpusim.Result) {
	w := st.obsAt(res.Config)
	if w == nil {
		w = &obsWindow{cfg: res.Config}
		st.obs = append(st.obs, w)
	}
	w.vb.push(res.Counters.VALUBusy)
	w.mb.push(res.Counters.MemUnitBusy)
}

// isOutlier applies the robust deviation test: a sample is an outlier
// when VALUBusy or MemUnitBusy deviates from the median of the
// per-kernel history at the same configuration by more than
// max(outlierK·MAD, outlierFloor). Histories shorter than minHistory
// never reject, and the absolute floor keeps deterministic (zero-MAD)
// histories from rejecting legitimate small shifts.
func (c *Controller) isOutlier(st *kernelState, res *gpusim.Result) bool {
	w := st.obsAt(res.Config)
	if w == nil || w.vb.n < minHistory {
		return false
	}
	return w.vb.exceeds(res.Counters.VALUBusy) || w.mb.exceeds(res.Counters.MemUnitBusy)
}

// binsFor predicts sensitivity bins from a (smoothed) counter sample,
// building its feature vector once for every managed tunable, with
// unmanaged tunables reported as High so that CG pins them at their
// maximum (i.e. leaves them at the baseline value).
func (c *Controller) binsFor(cs counters.Set) sensitivity.Bins {
	return c.pred.PredictBinsFor(cs, c.tunables)
}

func binFor(bins sensitivity.Bins, t hw.Tunable) sensitivity.Bin {
	switch t {
	case hw.TunableCUs:
		return bins.CUs
	case hw.TunableCUFreq:
		return bins.CUFreq
	default:
		return bins.MemFreq
	}
}

// applyCG jumps every managed tunable to its bin target (Algorithm 1's
// SetCU_Freq_MemBW).
func (c *Controller) applyCG(st *kernelState, cur hw.Config, bins sensitivity.Bins) {
	next := cur
	var moved []hw.Tunable
	for _, t := range c.tunables {
		target := cgTarget(t, binFor(bins, t))
		if t.LevelFor(next) != target {
			next = t.WithLevel(next, target)
			moved = append(moved, t)
		}
	}
	st.next = next
	st.lastMoved = moved
	st.lastCG = len(moved) > 0
	if len(moved) > 0 {
		st.lastKind = ActionCG
	}
}

// revertTo restores the given tunables of cur to their values in prev.
func (c *Controller) revertTo(st *kernelState, cur, prev hw.Config, moved []hw.Tunable) {
	next := cur
	for _, t := range moved {
		next = t.WithLevel(next, t.LevelFor(prev))
	}
	st.next = next
	st.lastMoved = nil
	st.lastCG = false
	st.lastKind = ActionRevert
}

func (c *Controller) resetFG(st *kernelState) {
	st.isolate = nil
	st.dither = [hw.NumTunables]int{}
	st.frozen = [hw.NumTunables]bool{}
}

// fgEligible reports whether the FG loop may step t downward: the
// tunable must be managed, not frozen by dithering, and not predicted
// highly sensitive — CG pinned HIGH-bin tunables at their maximum on
// purpose, and probing them down would knowingly sacrifice performance
// (this is why Figure 16 shows Graph500's compute frequency occupying a
// single state).
func (c *Controller) fgEligible(st *kernelState, t hw.Tunable) bool {
	return !st.frozen[t] && binFor(st.bins, t) != sensitivity.High
}

// fineGrain runs one step of the FG block: decrement toward lower power
// while the utilization gradient is non-negative; on degradation, revert
// — isolating the responsible tunable when several moved together — and
// count dithering, freezing a tunable at its last good value once it has
// oscillated MaxDither times (Section 5.2).
func (c *Controller) fineGrain(st *kernelState, cur hw.Config, proxy float64) {
	moved := st.lastMoved // what we changed before this observation
	wasCG := st.lastCG
	st.lastMoved = nil
	st.lastCG = false

	eps := c.opts.Deadband * st.proxy
	if eps < 1e-9 {
		eps = 1e-9
	}
	degraded := proxy < st.proxy-eps

	if degraded && len(moved) == 0 {
		// Utilization dropped without any controller action: a natural
		// workload fluctuation. Hold the configuration rather than
		// react to what the sensitivity change did not announce.
		st.next = cur
		return
	}

	if degraded && len(moved) > 0 {
		if len(moved) == 1 {
			// Unambiguous blame: revert the tunable.
			t := moved[0]
			st.next = t.WithLevel(cur, t.LevelFor(st.prev))
			if wasCG {
				// A coarse-grain jump overshot the balance point:
				// fall back and let FG approach it one step at a time
				// instead of pinning the tunable at the baseline.
				st.isolate = append(st.isolate, t)
				st.lastKind = ActionRevert
				return
			}
			// A fine-grain step failed: count the oscillation; past
			// the dithering budget, pin the tunable at the last
			// zero-gradient state (Algorithm 1's cut-off).
			st.lastKind = ActionRevert
			st.dither[t]++
			if st.dither[t] >= c.opts.MaxDither {
				st.next = t.WithLevel(st.next, t.LevelFor(st.lastGood))
				st.frozen[t] = true
				st.lastKind = ActionFreeze
			} else {
				// Re-probe later, after the other suspects.
				st.isolate = append(st.isolate, t)
			}
			return
		}
		// Several tunables moved together (a CG jump or a concurrent FG
		// step): revert them all, then test them one at a time to
		// isolate the responsible tunable.
		c.revertTo(st, cur, st.prev, moved)
		st.isolate = append(st.isolate, moved...)
		return
	}

	// Gradient >= 0: the current configuration performs at least as well
	// as the previous one; remember it and keep reducing power.
	st.lastGood = cur

	// Isolation mode: step one suspect at a time so blame stays
	// unambiguous.
	for len(st.isolate) > 0 {
		t := st.isolate[0]
		st.isolate = st.isolate[1:]
		if !c.fgEligible(st, t) {
			continue
		}
		if next, ok := t.Step(cur, hw.Down); ok {
			st.next = next
			st.lastMoved = []hw.Tunable{t}
			st.lastKind = ActionFG
			return
		}
	}

	// Concurrent decrement (Section 5.2: "all tunables can be fine-tuned
	// concurrently") of the eligible tunables with a clean record;
	// tunables that have already caused a revert are only re-probed
	// individually through the isolation queue.
	next := cur
	var movedNow []hw.Tunable
	for _, t := range c.tunables {
		if !c.fgEligible(st, t) || st.dither[t] > 0 {
			continue
		}
		if stepped, ok := t.Step(next, hw.Down); ok {
			next = stepped
			movedNow = append(movedNow, t)
		}
	}
	if len(movedNow) == 0 {
		st.next = cur // converged: floor or frozen everywhere
		return
	}
	st.next = next
	st.lastMoved = movedNow
	st.lastKind = ActionFG
}
