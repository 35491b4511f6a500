// Package hw describes the hardware platform Harmonia manages: the three
// hardware tunables (active compute-unit count, compute frequency, and
// memory bus frequency), their legal values on an AMD Radeon HD 7970-class
// GPU, the DVFS voltage tables, and the enumerable space of roughly 450
// combined compute/memory configurations that the paper's policies search.
//
// Everything here is pure data and arithmetic: no simulation and no power
// modelling. The timing simulator (internal/gpusim) and the power model
// (internal/power) both consume these types.
package hw

import "fmt"

// MHz is a clock frequency in megahertz.
type MHz int

// GHz returns the frequency in gigahertz.
func (f MHz) GHz() float64 { return float64(f) / 1000 }

// Hz returns the frequency in hertz.
func (f MHz) Hz() float64 { return float64(f) * 1e6 }

func (f MHz) String() string { return fmt.Sprintf("%dMHz", int(f)) }

// Platform constants for the AMD Radeon HD 7970 ("Tahiti", GCN) used as
// the paper's test bed (Section 2.2).
const (
	// MaxCUs is the total number of compute units on the chip.
	MaxCUs = 32
	// MinCUs is the smallest number of CUs the paper's methodology
	// enables (Section 3.1).
	MinCUs = 4
	// CUStep is the granularity at which CUs are enabled/power-gated.
	CUStep = 4

	// SIMDsPerCU is the number of SIMD vector units per compute unit.
	SIMDsPerCU = 4
	// LanesPerSIMD is the number of processing elements (ALUs) per SIMD.
	LanesPerSIMD = 16
	// WavefrontSize is the number of work-items per wavefront.
	WavefrontSize = 64
	// MaxWavesPerSIMD is the architectural limit on in-flight wavefronts
	// per SIMD unit.
	MaxWavesPerSIMD = 10

	// VGPRsPerSIMD is the vector register file capacity, in registers
	// per work-item slot, available to one SIMD (256 per wavefront lane).
	VGPRsPerSIMD = 256
	// SGPRsPerCU is the scalar register file capacity per CU. The paper
	// normalizes kernel SGPR usage by 102 (Table 2).
	SGPRsPerCU = 512
	// MaxSGPRsPerWave is the per-wavefront scalar register allocation
	// limit used for normalization in Table 2.
	MaxSGPRsPerWave = 102

	// LDSBytesPerCU is the local data share (scratchpad) per CU.
	LDSBytesPerCU = 64 * 1024
	// L1BytesPerCU is the per-CU L1 data cache size.
	L1BytesPerCU = 16 * 1024
	// L2Bytes is the shared L2 cache size.
	L2Bytes = 768 * 1024

	// MemChannels is the number of 64-bit dual-channel GDDR5 memory
	// controllers.
	MemChannels = 6
	// BusWidthBits is the total memory bus width in bits.
	BusWidthBits = MemChannels * 64
	// GDDR5TransferRate is the number of data transfers per bus-clock
	// cycle for GDDR5 (quad data rate relative to the command clock the
	// paper calls "memory bus frequency").
	GDDR5TransferRate = 4

	// CacheLineBytes is the transaction granularity between L2 and DRAM.
	CacheLineBytes = 64
)

// Compute frequency range (Section 3.1): 300 MHz to 1 GHz in 100 MHz steps.
const (
	MinCUFreq  MHz = 300
	MaxCUFreq  MHz = 1000
	CUFreqStep MHz = 100
)

// Memory bus frequency range (Section 3.1): 475 MHz (90 GB/s) to
// 1375 MHz (264 GB/s) in 150 MHz (30 GB/s) steps.
const (
	MinMemFreq  MHz = 475
	MaxMemFreq  MHz = 1375
	MemFreqStep MHz = 150
)

// DPMState is one entry of the stock PowerTune DVFS table (Table 1).
type DPMState struct {
	Name    string
	Freq    MHz
	Voltage float64 // volts
}

// DPMTable is the published AMD HD 7970 GPU DVFS table (Table 1) plus the
// 1 GHz boost state at 1.19 V mentioned in Section 2.3. Harmonia's 100 MHz
// sweep grid interpolates voltages between these anchor points.
var DPMTable = []DPMState{
	{Name: "DPM0", Freq: 300, Voltage: 0.85},
	{Name: "DPM1", Freq: 500, Voltage: 0.95},
	{Name: "DPM2", Freq: 925, Voltage: 1.17},
	{Name: "Boost", Freq: 1000, Voltage: 1.19},
}

// MemVoltage is the fixed memory interface voltage. The paper's platform
// could not scale the memory rail (Sections 3.3, 6), so all memory bus
// frequencies run at this voltage.
const MemVoltage = 1.5

// CoreVoltage returns the GPU core voltage for a compute frequency,
// linearly interpolating between the DPM anchor points of Table 1.
// Frequencies below DPM0 clamp to 0.85 V; above boost clamp to 1.19 V.
func CoreVoltage(f MHz) float64 {
	t := DPMTable
	if f <= t[0].Freq {
		return t[0].Voltage
	}
	for i := 1; i < len(t); i++ {
		if f <= t[i].Freq {
			lo, hi := t[i-1], t[i]
			frac := float64(f-lo.Freq) / float64(hi.Freq-lo.Freq)
			return lo.Voltage + frac*(hi.Voltage-lo.Voltage)
		}
	}
	return t[len(t)-1].Voltage
}

// ComputeConfig is a setting of the GPU-side tunables: the number of
// active (non-power-gated) CUs and the common CU clock frequency
// (Section 3.1 calls this the "compute configuration").
type ComputeConfig struct {
	CUs  int
	Freq MHz
}

// Valid reports whether the compute configuration lies on the legal grid.
func (c ComputeConfig) Valid() bool {
	return c.CUs >= MinCUs && c.CUs <= MaxCUs && c.CUs%CUStep == 0 &&
		c.Freq >= MinCUFreq && c.Freq <= MaxCUFreq && (c.Freq-MinCUFreq)%CUFreqStep == 0
}

// Voltage returns the core voltage for this configuration's frequency.
func (c ComputeConfig) Voltage() float64 { return CoreVoltage(c.Freq) }

// PeakGFLOPS returns the single-precision FMA throughput of the
// configuration in GFLOP/s (two floating-point operations per FMA lane
// per cycle).
func (c ComputeConfig) PeakGFLOPS() float64 {
	lanes := float64(c.CUs * SIMDsPerCU * LanesPerSIMD)
	return lanes * 2 * c.Freq.GHz()
}

// PeakGOPS returns peak vector operation issue throughput in Gops/s
// (one vector instruction slot per lane per cycle).
func (c ComputeConfig) PeakGOPS() float64 {
	lanes := float64(c.CUs * SIMDsPerCU * LanesPerSIMD)
	return lanes * c.Freq.GHz()
}

func (c ComputeConfig) String() string {
	return fmt.Sprintf("%dCU@%v", c.CUs, c.Freq)
}

// MemConfig is a setting of the memory-side tunable: the memory bus
// frequency, which drives the memory controllers, the GDDR5 PHYs, and the
// DRAM devices (Section 2.4 calls this the "memory configuration").
type MemConfig struct {
	BusFreq MHz
}

// Valid reports whether the memory configuration lies on the legal grid.
func (m MemConfig) Valid() bool {
	return m.BusFreq >= MinMemFreq && m.BusFreq <= MaxMemFreq &&
		(m.BusFreq-MinMemFreq)%MemFreqStep == 0
}

// BandwidthGBs returns the peak DRAM bandwidth in GB/s delivered at this
// bus frequency: freq × transfer rate × bus width (Eq. 2 of the paper).
// At 1375 MHz this is 264 GB/s; at 475 MHz it is about 91 GB/s, which the
// paper rounds to 90 GB/s.
func (m MemConfig) BandwidthGBs() float64 {
	return m.BusFreq.GHz() * GDDR5TransferRate * (BusWidthBits / 8)
}

func (m MemConfig) String() string {
	return fmt.Sprintf("mem@%v(%.0fGB/s)", m.BusFreq, m.BandwidthGBs())
}

// Config is a full hardware configuration: one compute configuration plus
// one memory configuration. Each Config corresponds to a specific value of
// platform ops/byte and a specific balance between compute and memory
// power (Section 3.1).
type Config struct {
	Compute ComputeConfig
	Memory  MemConfig
}

// Valid reports whether both halves lie on the legal grid.
func (c Config) Valid() bool { return c.Compute.Valid() && c.Memory.Valid() }

// OpsPerByte returns the hardware-delivered operation intensity of the
// configuration: peak vector operations per second divided by peak memory
// bandwidth. It is the x-axis of the paper's balance plots (Figure 3).
func (c Config) OpsPerByte() float64 {
	return c.Compute.PeakGOPS() / c.Memory.BandwidthGBs()
}

func (c Config) String() string {
	return c.Compute.String() + "/" + c.Memory.String()
}

// MinConfig returns the minimum hardware configuration the paper
// normalizes against (4 CUs, 300 MHz compute, 90 GB/s memory).
func MinConfig() Config {
	return Config{
		Compute: ComputeConfig{CUs: MinCUs, Freq: MinCUFreq},
		Memory:  MemConfig{BusFreq: MinMemFreq},
	}
}

// MaxConfig returns the maximum hardware configuration (32 CUs, 1 GHz,
// 264 GB/s), which is also the stock PowerTune operating point when
// thermal headroom is available (Section 7.1).
func MaxConfig() Config {
	return Config{
		Compute: ComputeConfig{CUs: MaxCUs, Freq: MaxCUFreq},
		Memory:  MemConfig{BusFreq: MaxMemFreq},
	}
}

// Grid sizes of the three tunable axes.
const (
	numCUCounts = (MaxCUs-MinCUs)/CUStep + 1
	numCUFreqs  = int((MaxCUFreq-MinCUFreq)/CUFreqStep) + 1
	numMemFreqs = int((MaxMemFreq-MinMemFreq)/MemFreqStep) + 1
	numConfigs  = numCUCounts * numCUFreqs * numMemFreqs
)

// CUCounts returns the legal active-CU counts in increasing order.
func CUCounts() []int {
	out := make([]int, 0, numCUCounts)
	for n := MinCUs; n <= MaxCUs; n += CUStep {
		out = append(out, n)
	}
	return out
}

// CUFreqs returns the legal compute frequencies in increasing order.
func CUFreqs() []MHz {
	out := make([]MHz, 0, numCUFreqs)
	for f := MinCUFreq; f <= MaxCUFreq; f += CUFreqStep {
		out = append(out, f)
	}
	return out
}

// MemFreqs returns the legal memory bus frequencies in increasing order.
func MemFreqs() []MHz {
	out := make([]MHz, 0, numMemFreqs)
	for f := MinMemFreq; f <= MaxMemFreq; f += MemFreqStep {
		out = append(out, f)
	}
	return out
}

// ConfigSpace returns every legal hardware configuration, ordered by
// CU count, then compute frequency, then memory frequency. The paper
// describes this space as "approximately 450" points (Section 3.1); the
// exact count is 8 × 8 × 7 = 448.
func ConfigSpace() []Config {
	// The axis slices are hoisted out of the nested loops: rebuilding
	// MemFreqs per (CU count, compute freq) pair used to dominate the
	// allocation profile of every uncached oracle sweep.
	cus, cfreqs, mfreqs := CUCounts(), CUFreqs(), MemFreqs()
	space := make([]Config, 0, NumConfigs())
	for _, n := range cus {
		for _, cf := range cfreqs {
			for _, mf := range mfreqs {
				space = append(space, Config{
					Compute: ComputeConfig{CUs: n, Freq: cf},
					Memory:  MemConfig{BusFreq: mf},
				})
			}
		}
	}
	return space
}

// NumConfigs returns the size of the configuration space.
func NumConfigs() int { return numConfigs }

// Index returns the configuration's position in ConfigSpace(), or false
// when the configuration is off the legal grid.
func (c Config) Index() (int, bool) {
	if !c.Valid() {
		return 0, false
	}
	cu := TunableCUs.LevelFor(c)
	cf := TunableCUFreq.LevelFor(c)
	mf := TunableMemFreq.LevelFor(c)
	return (cu*numCUFreqs+cf)*numMemFreqs + mf, true
}

// Step direction for tunable adjustment.
const (
	// Down moves a tunable one step toward lower power.
	Down = -1
	// Up moves a tunable one step toward higher power.
	Up = +1
)

// StepCUs returns the configuration with the active-CU count moved one
// step in the given direction, clamped to the legal range. The returned
// bool is false when the value was already at the boundary.
func StepCUs(c Config, dir int) (Config, bool) {
	n := c.Compute.CUs + dir*CUStep
	if n < MinCUs || n > MaxCUs {
		return c, false
	}
	c.Compute.CUs = n
	return c, true
}

// StepCUFreq returns the configuration with the compute frequency moved
// one step in the given direction, clamped to the legal range.
func StepCUFreq(c Config, dir int) (Config, bool) {
	f := c.Compute.Freq + MHz(dir)*CUFreqStep
	if f < MinCUFreq || f > MaxCUFreq {
		return c, false
	}
	c.Compute.Freq = f
	return c, true
}

// StepMemFreq returns the configuration with the memory bus frequency
// moved one step in the given direction, clamped to the legal range.
func StepMemFreq(c Config, dir int) (Config, bool) {
	f := c.Memory.BusFreq + MHz(dir)*MemFreqStep
	if f < MinMemFreq || f > MaxMemFreq {
		return c, false
	}
	c.Memory.BusFreq = f
	return c, true
}

// Tunable identifies one of the three hardware tunables Harmonia manages.
type Tunable int

const (
	// TunableCUs is the active compute-unit count.
	TunableCUs Tunable = iota
	// TunableCUFreq is the compute (CU) clock frequency.
	TunableCUFreq
	// TunableMemFreq is the memory bus frequency.
	TunableMemFreq
	// NumTunables is the number of tunables.
	NumTunables
)

func (t Tunable) String() string {
	switch t {
	case TunableCUs:
		return "CUs"
	case TunableCUFreq:
		return "CUFreq"
	case TunableMemFreq:
		return "MemFreq"
	default:
		return fmt.Sprintf("Tunable(%d)", int(t))
	}
}

// Step moves the given tunable of c one step in direction dir, clamping at
// the grid boundary. The bool is false if no movement was possible.
func (t Tunable) Step(c Config, dir int) (Config, bool) {
	switch t {
	case TunableCUs:
		return StepCUs(c, dir)
	case TunableCUFreq:
		return StepCUFreq(c, dir)
	case TunableMemFreq:
		return StepMemFreq(c, dir)
	default:
		return c, false
	}
}

// Value returns the current scalar value of the tunable in c (CU count, or
// frequency in MHz).
func (t Tunable) Value(c Config) int {
	switch t {
	case TunableCUs:
		return c.Compute.CUs
	case TunableCUFreq:
		return int(c.Compute.Freq)
	case TunableMemFreq:
		return int(c.Memory.BusFreq)
	default:
		return 0
	}
}

// Levels returns the number of grid points for the tunable.
func (t Tunable) Levels() int {
	switch t {
	case TunableCUs:
		return numCUCounts
	case TunableCUFreq:
		return numCUFreqs
	case TunableMemFreq:
		return numMemFreqs
	default:
		return 0
	}
}

// LevelFor returns the zero-based grid index of the tunable's value in c
// (0 = lowest power).
func (t Tunable) LevelFor(c Config) int {
	switch t {
	case TunableCUs:
		return (c.Compute.CUs - MinCUs) / CUStep
	case TunableCUFreq:
		return int(c.Compute.Freq-MinCUFreq) / int(CUFreqStep)
	case TunableMemFreq:
		return int(c.Memory.BusFreq-MinMemFreq) / int(MemFreqStep)
	default:
		return 0
	}
}

// WithLevel returns c with the tunable set to the grid point at the given
// zero-based index, clamped to the legal range.
func (t Tunable) WithLevel(c Config, level int) Config {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	level = clamp(level, 0, t.Levels()-1)
	switch t {
	case TunableCUs:
		c.Compute.CUs = MinCUs + level*CUStep
	case TunableCUFreq:
		c.Compute.Freq = MinCUFreq + MHz(level)*CUFreqStep
	case TunableMemFreq:
		c.Memory.BusFreq = MinMemFreq + MHz(level)*MemFreqStep
	}
	return c
}

// Tunables lists all three tunables in a stable order.
func Tunables() []Tunable {
	return []Tunable{TunableCUs, TunableCUFreq, TunableMemFreq}
}
