// Package eventsim is a wavefront-granularity, cycle-driven simulator of
// the same GCN-class GPU that internal/gpusim models analytically. Where
// gpusim computes closed-form interval estimates (fast enough for the
// 448-configuration × 14-application factorials the experiments need),
// eventsim executes the machine: workgroups dispatch to compute units,
// resident wavefronts interleave vector issue with memory requests,
// misses queue at banked memory channels behind a clock-domain-crossing
// token bucket, and time emerges from the event loop.
//
// Its purpose is validation: the cross-checking tests in this package
// and in internal/gpusim assert that the two simulators agree on the
// behaviours Harmonia depends on — boundedness classification, balance
// knees, monotonicity in each tunable, occupancy-limited latency hiding,
// and the clock-domain crossing effect — so the interval model's speed
// does not come at the cost of unvalidated physics.
//
// Everything is deterministic: cache hits and divergence are spread with
// Bresenham-style error accumulation rather than random numbers.
package eventsim

import (
	"container/heap"
	"math"

	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

// Params holds the machine constants of the event simulator. They mirror
// gpusim.Model's calibration so that the two simulators describe the
// same hardware.
type Params struct {
	// IssueCyclesPerVALU is how many cycles one wavefront VALU
	// instruction occupies a SIMD (64 lanes over 16 ALUs = 4).
	IssueCyclesPerVALU int
	// MemLatencyNS is the unloaded DRAM round-trip latency.
	MemLatencyNS float64
	// CrossLinesPerCycle is the L2-to-MC clock-domain-crossing
	// throughput in cache lines per compute cycle.
	CrossLinesPerCycle float64
	// ChannelEffBase/ChannelEffRow set per-channel efficiency from row
	// locality, as in gpusim.
	ChannelEffBase float64
	ChannelEffRow  float64
	// L2LatencyCycles is the hit latency of the L2 in compute cycles.
	L2LatencyCycles int
	// MaxOutstandingPerWave caps a wavefront's in-flight misses (its
	// MLP), scaled by the kernel's MLPPerWave.
	MaxOutstandingPerWave int
}

// DefaultParams mirrors gpusim.Default().
func DefaultParams() Params {
	return Params{
		IssueCyclesPerVALU:    4,
		MemLatencyNS:          350,
		CrossLinesPerCycle:    6,
		ChannelEffBase:        0.55,
		ChannelEffRow:         0.35,
		L2LatencyCycles:       80,
		MaxOutstandingPerWave: 1,
	}
}

// Result is the outcome of one event-simulated kernel invocation.
type Result struct {
	// Cycles is the kernel duration in compute-clock cycles.
	Cycles int64
	// Time is the duration in seconds.
	Time float64
	// DRAMBytes is the off-chip traffic.
	DRAMBytes float64
	// IssueSlots counts wavefront VALU instructions issued.
	IssueSlots int64
	// StallCycles counts SIMD-cycles: one for each cycle and each SIMD
	// that had resident waves but could not issue (all waiting on
	// memory). Over SIMDs × Cycles it is the stalled share Counters
	// reports.
	StallCycles int64
	// MemBusyCycles counts cycles with at least one memory request in
	// flight anywhere in the memory system.
	MemBusyCycles int64
	// L2Lines counts memory requests served by the L2.
	L2Lines int64
	// ServiceCycles is the aggregate memory-system service time in
	// compute cycles: DRAM channel occupancy (normalized across the six
	// channels) plus L2 slice occupancy. Its ratio to Cycles mirrors the
	// interval model's MemUnitBusy semantics.
	ServiceCycles float64
	// Waves is the number of wavefronts executed.
	Waves int
}

// AchievedGBs returns the realized DRAM bandwidth.
func (r Result) AchievedGBs() float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.DRAMBytes / r.Time / 1e9
}

// wave is one resident wavefront's execution state.
type wave struct {
	valuLeft    int // wavefront VALU instructions still to issue
	memLeft     int // memory requests still to send
	issuePause  int // cycles left on the instruction currently issuing
	outstanding int // in-flight memory requests
	maxOut      int // MLP cap
	memEvery    int // issue a memory request after this many VALU insts
	sinceMem    int // VALU insts since the last memory request
}

func (w *wave) done() bool { return w.valuLeft <= 0 && w.memLeft <= 0 && w.outstanding <= 0 }

// atCap reports whether the wave cannot send another request right now.
func (w *wave) atCap() bool { return w.outstanding >= w.maxOut }

// returnEvent is a memory request completing back at its wavefront.
type returnEvent struct {
	at int64
	w  *wave
}

// returnHeap is a min-heap of return events ordered by completion cycle.
type returnHeap []returnEvent

func (h returnHeap) Len() int            { return len(h) }
func (h returnHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h returnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *returnHeap) Push(x interface{}) { *h = append(*h, x.(returnEvent)) }
func (h *returnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// simd is one SIMD unit with its resident waves.
type simd struct {
	waves []*wave
	next  int // round-robin cursor
}

// channel is one memory channel: a queue drained at its service rate.
type channel struct {
	freeAt float64 // cycle (fractional) at which the channel is next free
}

// Sim is the event-driven simulator.
type Sim struct {
	P Params
}

// New returns an event simulator with default parameters.
func New() *Sim { return &Sim{P: DefaultParams()} }

// bresenham deterministically spreads a fraction: it returns a closure
// that yields true with the given long-run frequency.
func bresenham(frac float64) func() bool {
	acc := 0.0
	return func() bool {
		acc += frac
		if acc >= 1 {
			acc -= 1
			return true
		}
		return false
	}
}

// Run event-simulates one invocation of kernel k's iteration iter at
// configuration cfg. Large grids are truncated to maxWorkgroups (with
// traffic and issue counts representative of the truncated portion);
// pass 0 for the kernel's natural size.
func (s *Sim) Run(k *workloads.Kernel, iter int, cfg hw.Config, maxWorkgroups int) Result {
	phase := k.PhaseFor(iter)
	div := k.DivergenceFor(phase)
	util := 1 - div
	if util < 1e-3 {
		util = 1e-3
	}

	workgroups := int(float64(k.Workgroups) * phase.WorkScale)
	if workgroups < 1 {
		workgroups = 1
	}
	if maxWorkgroups > 0 && workgroups > maxWorkgroups {
		workgroups = maxWorkgroups
	}
	wavesPerWG := k.WavesPerWorkgroup()
	totalWaves := workgroups * wavesPerWG

	// Per-wavefront program: issued VALU instructions (divergence
	// inflates) and memory requests. Memory requests are expressed in
	// cache lines of DRAM-visible traffic plus L2 hits.
	valuPerWave := int(math.Ceil(k.VALUPerWI / util))
	bytesPerWI := k.FetchPerWI*k.BytesPerFetch*phase.FetchScale + k.WritePerWI*k.BytesPerWrite
	bytesPerWave := bytesPerWI * hw.WavefrontSize
	linesPerWave := int(math.Ceil(bytesPerWave / hw.CacheLineBytes))
	if linesPerWave < 1 {
		linesPerWave = 1
	}
	memEvery := valuPerWave / linesPerWave
	if memEvery < 1 {
		memEvery = 1
	}

	// Machine geometry.
	nCU := cfg.Compute.CUs
	nSIMD := nCU * hw.SIMDsPerCU
	occWaves := k.OccupancyWaves()
	fCU := cfg.Compute.Freq.Hz()

	// Memory system, expressed in compute cycles.
	l2hit := effectiveL2Hit(k, nCU)
	hitGen := bresenham(l2hit)
	chanEff := s.P.ChannelEffBase + s.P.ChannelEffRow*k.RowHit
	chBW := cfg.Memory.BandwidthGBs() * 1e9 * chanEff / hw.MemChannels // bytes/s per channel
	chCyclesPerLine := hw.CacheLineBytes / chBW * fCU                  // compute cycles to drain one line
	latencyCycles := s.P.MemLatencyNS * 1e-9 * fCU
	maxOut := int(math.Max(1, math.Round(k.MLPPerWave*float64(s.P.MaxOutstandingPerWave))))

	// Clock-domain crossing: a token bucket replenished per cycle.
	crossTokens := 0.0

	channels := make([]channel, hw.MemChannels)
	nextChannel := 0

	// Dispatch: fill SIMDs with waves up to occupancy; refill as waves
	// retire. Waves are identical, so dispatch order is immaterial.
	simds := make([]simd, nSIMD)
	pending := totalWaves
	newWave := func() *wave {
		return &wave{
			valuLeft: valuPerWave,
			memLeft:  linesPerWave,
			maxOut:   maxOut,
			memEvery: memEvery,
		}
	}
	for i := range simds {
		for len(simds[i].waves) < occWaves && pending > 0 {
			simds[i].waves = append(simds[i].waves, newWave())
			pending--
		}
	}

	var (
		now           int64
		issueSlots    int64
		stallCycles   int64
		memBusyCycles int64
		dramLines     int64
		l2Lines       int64
		retired       int
	)
	// Requests waiting for a clock-domain-crossing token, and the heap
	// of in-flight requests ordered by completion cycle.
	var crossQueue []*wave
	var returns returnHeap

	serialCycles := int64(k.SerialCycles)

	for retired < totalWaves {
		now++
		// Guard against pathological configurations.
		if now > 1<<40 {
			break
		}

		if len(returns) > 0 || len(crossQueue) > 0 {
			memBusyCycles++
		}

		// Complete returned memory requests.
		for len(returns) > 0 && returns[0].at <= now {
			ev := heap.Pop(&returns).(returnEvent)
			ev.w.outstanding--
		}

		// Replenish crossing tokens and drain the crossing queue into
		// memory channels.
		crossTokens += s.P.CrossLinesPerCycle
		for len(crossQueue) > 0 && crossTokens >= 1 {
			crossTokens--
			w := crossQueue[0]
			crossQueue = crossQueue[1:]
			// Pick the next channel round-robin; its queue delay adds
			// to the request's return time.
			ch := &channels[nextChannel]
			nextChannel = (nextChannel + 1) % hw.MemChannels
			start := math.Max(float64(now), ch.freeAt)
			ch.freeAt = start + chCyclesPerLine
			dramLines++
			heap.Push(&returns, returnEvent{at: int64(ch.freeAt + latencyCycles), w: w})
		}

		anyResident := false
		for si := range simds {
			sd := &simds[si]
			if len(sd.waves) == 0 {
				continue
			}
			anyResident = true
			// Round-robin: find an issuable wave.
			issued := false
			for off := 0; off < len(sd.waves); off++ {
				w := sd.waves[(sd.next+off)%len(sd.waves)]
				if w.issuePause > 0 {
					w.issuePause--
					issued = true // the SIMD is occupied, not stalled
					break
				}
				// Time to send a memory request?
				if w.memLeft > 0 && (w.sinceMem >= w.memEvery || w.valuLeft <= 0) {
					if w.atCap() {
						continue // at MLP cap; try another wave
					}
					w.memLeft--
					w.sinceMem = 0
					w.outstanding++
					if hitGen() {
						// L2 hit: returns after the hit latency without
						// touching the crossing or the channels.
						l2Lines++
						heap.Push(&returns, returnEvent{at: now + int64(s.P.L2LatencyCycles), w: w})
					} else {
						crossQueue = append(crossQueue, w)
					}
					issued = true
					sd.next = (sd.next + off + 1) % len(sd.waves)
					break
				}
				if w.valuLeft > 0 {
					w.valuLeft--
					w.sinceMem++
					w.issuePause = s.P.IssueCyclesPerVALU - 1
					issueSlots++
					issued = true
					sd.next = (sd.next + off + 1) % len(sd.waves)
					break
				}
			}
			if !issued {
				stallCycles++
			}
			// Retire finished waves and refill from the pending pool.
			live := sd.waves[:0]
			for _, w := range sd.waves {
				if w.done() {
					retired++
					continue
				}
				live = append(live, w)
			}
			sd.waves = live
			for len(sd.waves) < occWaves && pending > 0 {
				sd.waves = append(sd.waves, newWave())
				pending--
			}
		}
		if !anyResident && pending == 0 {
			break
		}
	}

	totalCycles := now + serialCycles
	// L2 service bandwidth mirrors the interval model's 512 B/cycle.
	const l2BytesPerCycle = 512.0
	service := float64(dramLines)*chCyclesPerLine/hw.MemChannels +
		float64(l2Lines)*hw.CacheLineBytes/l2BytesPerCycle
	return Result{
		Cycles:        totalCycles,
		Time:          float64(totalCycles)/fCU + k.LaunchOverhead,
		DRAMBytes:     float64(dramLines) * hw.CacheLineBytes,
		IssueSlots:    issueSlots,
		StallCycles:   stallCycles,
		MemBusyCycles: memBusyCycles,
		L2Lines:       l2Lines,
		ServiceCycles: service,
		Waves:         totalWaves,
	}
}

// effectiveL2Hit mirrors gpusim.EffectiveL2Hit.
func effectiveL2Hit(k *workloads.Kernel, nCU int) float64 {
	frac := float64(nCU-hw.MinCUs) / float64(hw.MaxCUs-hw.MinCUs)
	hit := k.L2Hit * (1 - k.L2Thrash*frac)
	return math.Max(hit, 0)
}
