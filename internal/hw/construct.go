package hw

// Clamping constructors. These are the sanctioned way to build hardware
// operating points from numbers that did not come from the hw constants
// or enumerators: every value is snapped to the nearest legal grid
// point and clamped to the paper's tunable ranges (Section 3.1), so a
// configuration built here is always Valid. Off-grid points built any
// other way are rejected where they enter a run (session checks
// Config.Valid at every kernel boundary) or a request (ParseConfig).

// snap rounds v to the nearest point of the arithmetic grid
// [min, min+step, ..., max], clamping at the ends.
func snap(v, min, max, step int) int {
	if v <= min {
		return min
	}
	if v >= max {
		return max
	}
	k := (v - min + step/2) / step
	return min + k*step
}

// NewComputeConfig returns the compute configuration with the CU count
// and frequency snapped to the legal grid.
func NewComputeConfig(cus int, freq MHz) ComputeConfig {
	return ComputeConfig{
		CUs:  snap(cus, MinCUs, MaxCUs, CUStep),
		Freq: MHz(snap(int(freq), int(MinCUFreq), int(MaxCUFreq), int(CUFreqStep))),
	}
}

// NewMemConfig returns the memory configuration with the bus frequency
// snapped to the legal grid.
func NewMemConfig(busFreq MHz) MemConfig {
	return MemConfig{
		BusFreq: MHz(snap(int(busFreq), int(MinMemFreq), int(MaxMemFreq), int(MemFreqStep))),
	}
}

// NewConfig returns the full configuration with all three tunables
// snapped to the legal grid.
func NewConfig(cus int, cuFreq, memFreq MHz) Config {
	return Config{
		Compute: NewComputeConfig(cus, cuFreq),
		Memory:  NewMemConfig(memFreq),
	}
}
