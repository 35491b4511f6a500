package timeline

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PowerBucket is one downsampled interval of the power timeline: the
// bucket's start time, how many DAQ samples landed in it, and the mean
// per-rail watts over those samples (zero for an empty bucket, which
// can occur under DAQ dropouts).
type PowerBucket struct {
	TimeS   float64 `json:"time_s"`
	Samples int     `json:"samples"`
	GPUW    float64 `json:"gpu_w"`
	MemW    float64 `json:"mem_w"`
	OtherW  float64 `json:"other_w"`
}

// Snapshot is a deep, immutable copy of a recorder's state, safe to
// serialize while the run continues. Serialization is deterministic:
// slices preserve recording order and no maps are emitted.
type Snapshot struct {
	App         string  `json:"app"`
	Policy      string  `json:"policy"`
	Complete    bool    `json:"complete"`
	DurationS   float64 `json:"duration_s"`
	ResolutionS float64 `json:"resolution_s"`
	SampleCount int     `json:"sample_count"`

	Power     []PowerBucket `json:"power"`
	Decisions []Decision    `json:"decisions"`
	// Transitions are the retained decisions' transitions; those of
	// dropped decisions count in DroppedTransitions.
	Transitions []Transition `json:"transitions"`

	DroppedDecisions   int `json:"dropped_decisions,omitempty"`
	DroppedTransitions int `json:"dropped_transitions,omitempty"`
}

// Snapshot copies the recorder's current state. Safe on a nil Recorder
// (returns an empty, complete snapshot).
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{Complete: true}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		App:                r.app,
		Policy:             r.policy,
		Complete:           r.finished,
		DurationS:          r.durationS,
		ResolutionS:        r.res,
		SampleCount:        r.samples,
		Power:              make([]PowerBucket, len(r.buckets)),
		Decisions:          append([]Decision(nil), r.decisions...),
		DroppedDecisions:   r.droppedDecs,
		DroppedTransitions: r.droppedTrans,
	}
	// The cap drops the newest records, so a retained decision's
	// predecessor is retained too. No transitions serialize as null.
	if r.transitions > 0 {
		s.Transitions = make([]Transition, 0, r.transitions)
		for i, d := range r.decisions {
			if d.Transition {
				s.Transitions = append(s.Transitions, Transition{
					Index: d.Index, AtS: d.StartS, Kernel: d.Kernel,
					From: r.decisions[i-1].Config, To: d.Config,
				})
			}
		}
	}
	for i, b := range r.buckets {
		pb := PowerBucket{TimeS: float64(i) * r.res, Samples: b.n}
		if b.n > 0 {
			n := float64(b.n)
			pb.GPUW, pb.MemW, pb.OtherW = b.gpu/n, b.mem/n, b.other/n
		}
		s.Power[i] = pb
	}
	return s
}

// Coarsen returns a snapshot whose power timeline is re-bucketed at the
// nearest integer multiple of the base resolution to resS (at least the
// base, at most the whole timeline in one bucket). Decision and
// transition streams are unchanged. resS values that are not positive
// finite return the receiver unchanged.
func (s *Snapshot) Coarsen(resS float64) *Snapshot {
	if s == nil || resS <= 0 || math.IsInf(resS, 0) || math.IsNaN(resS) || s.ResolutionS <= 0 {
		return s
	}
	// Clamp in float before converting: a factor past the bucket count
	// merges no further, and a larger one would overflow the int
	// bucket arithmetic below.
	factor := int(math.Min(math.Round(resS/s.ResolutionS), float64(len(s.Power))))
	if factor <= 1 {
		return s
	}
	out := *s
	out.ResolutionS = s.ResolutionS * float64(factor)
	merged := make([]PowerBucket, (len(s.Power)+factor-1)/factor)
	type sums struct {
		n               int
		gpu, mem, other float64
	}
	acc := make([]sums, len(merged))
	for i, b := range s.Power {
		a := &acc[i/factor]
		a.n += b.Samples
		n := float64(b.Samples)
		a.gpu += b.GPUW * n
		a.mem += b.MemW * n
		a.other += b.OtherW * n
	}
	for i, a := range acc {
		pb := PowerBucket{TimeS: float64(i) * out.ResolutionS, Samples: a.n}
		if a.n > 0 {
			n := float64(a.n)
			pb.GPUW, pb.MemW, pb.OtherW = a.gpu/n, a.mem/n, a.other/n
		}
		merged[i] = pb
	}
	out.Power = merged
	return &out
}

// WriteJSON writes the snapshot as indented JSON. Output is
// deterministic for a deterministic run.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the power timeline as CSV
// (time_s,samples,gpu_w,mem_w,other_w rows in time order).
func (s *Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "samples", "gpu_w", "mem_w", "other_w"}); err != nil {
		return err
	}
	for _, b := range s.Power {
		row := []string{
			formatF(b.TimeS),
			strconv.Itoa(b.Samples),
			formatF(b.GPUW),
			formatF(b.MemW),
			formatF(b.OtherW),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }

// KernelSummary aggregates one kernel's share of the run.
type KernelSummary struct {
	Kernel      string  `json:"kernel"`
	Invocations int     `json:"invocations"`
	TimeS       float64 `json:"time_s"`
	EnergyJ     float64 `json:"energy_j"`
	EnergyShare float64 `json:"energy_share"`
	Transitions int     `json:"transitions"`
}

// ActionCount is one action source's tally.
type ActionCount struct {
	Source string `json:"source"`
	N      int    `json:"n"`
}

// Census counts decisions by action source, an unannotated decision
// counting as "(none)". The result is sorted by source, and nil when
// decs is empty.
func Census(decs []Decision) []ActionCount {
	var out []ActionCount
	for _, d := range decs {
		src := d.Source
		if src == "" {
			src = "(none)"
		}
		i := sort.Search(len(out), func(i int) bool { return out[i].Source >= src })
		if i == len(out) || out[i].Source != src {
			out = append(out, ActionCount{})
			copy(out[i+1:], out[i:])
			out[i] = ActionCount{Source: src}
		}
		out[i].N++
	}
	return out
}

// Summary is the per-kernel energy breakdown and action census of a
// timeline, the report-friendly digest of the flight recording.
type Summary struct {
	App         string          `json:"app"`
	Policy      string          `json:"policy"`
	Complete    bool            `json:"complete"`
	Boundaries  int             `json:"boundaries"`
	DurationS   float64         `json:"duration_s"`
	EnergyJ     float64         `json:"energy_j"`
	Transitions int             `json:"transitions"`
	Kernels     []KernelSummary `json:"kernels"`
	Actions     []ActionCount   `json:"actions"`
}

// Summary digests the snapshot. Kernels and actions are sorted by name
// for deterministic output.
func (s *Snapshot) Summary() Summary {
	sum := Summary{
		App:         s.App,
		Policy:      s.Policy,
		Complete:    s.Complete,
		Boundaries:  len(s.Decisions) + s.DroppedDecisions,
		DurationS:   s.DurationS,
		Transitions: len(s.Transitions) + s.DroppedTransitions,
		Actions:     Census(s.Decisions),
	}
	perKernel := make(map[string]*KernelSummary)
	order := make([]string, 0, 4)
	for _, d := range s.Decisions {
		ks := perKernel[d.Kernel]
		if ks == nil {
			ks = &KernelSummary{Kernel: d.Kernel}
			perKernel[d.Kernel] = ks
			order = append(order, d.Kernel)
		}
		ks.Invocations++
		ks.TimeS += d.TimeS
		ks.EnergyJ += d.EnergyJ
		if d.Transition {
			ks.Transitions++
		}
		sum.EnergyJ += d.EnergyJ
	}
	sort.Strings(order)
	for _, name := range order {
		ks := *perKernel[name]
		if sum.EnergyJ > 0 {
			ks.EnergyShare = ks.EnergyJ / sum.EnergyJ
		}
		sum.Kernels = append(sum.Kernels, ks)
	}
	return sum
}

// String renders the summary as an aligned report table.
func (s Summary) String() string {
	var b strings.Builder
	state := "in progress"
	if s.Complete {
		state = "complete"
	}
	fmt.Fprintf(&b, "Timeline: %s under %s (%s)\n", s.App, s.Policy, state)
	fmt.Fprintf(&b, "  boundaries=%d transitions=%d duration=%.4fs energy=%.2fJ\n",
		s.Boundaries, s.Transitions, s.DurationS, s.EnergyJ)
	fmt.Fprintf(&b, "  %-24s %6s %10s %10s %7s %6s\n", "kernel", "invocs", "time(s)", "energy(J)", "share", "trans")
	for _, k := range s.Kernels {
		fmt.Fprintf(&b, "  %-24s %6d %10.4f %10.2f %6.1f%% %6d\n",
			k.Kernel, k.Invocations, k.TimeS, k.EnergyJ, 100*k.EnergyShare, k.Transitions)
	}
	parts := make([]string, 0, len(s.Actions))
	for _, a := range s.Actions {
		parts = append(parts, fmt.Sprintf("%s=%d", a.Source, a.N))
	}
	if len(parts) > 0 {
		fmt.Fprintf(&b, "  actions: %s\n", strings.Join(parts, " "))
	}
	return b.String()
}
