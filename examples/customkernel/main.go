// Customkernel: define your own GPU kernel descriptor, characterize it
// on the simulated platform, retrain the sensitivity predictors with it
// included (the paper's Section 4 methodology), and let Harmonia manage
// it alongside the standard suite.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"harmonia"
)

func main() {
	// An FFT-like kernel: LDS-tiled butterflies with moderate register
	// pressure, little divergence, and bandwidth-hungry transposes.
	fft := &harmonia.Kernel{
		Name:          "Custom.FFT1D",
		WorkgroupSize: 256, Workgroups: 6000,
		VALUPerWI: 260, SALUPerWI: 16,
		FetchPerWI: 3, WritePerWI: 1, BytesPerFetch: 4, BytesPerWrite: 4,
		VGPRs: 40, SGPRs: 32, LDSBytes: 8192,
		Divergence: 0.04, L2Hit: 0.85, L2Thrash: 0.05, RowHit: 0.85,
		MLPPerWave: 2.5, SerialCycles: 15000, LaunchOverhead: 10e-6,
	}
	if err := fft.Validate(); err != nil {
		log.Fatal(err)
	}

	app := &harmonia.Application{
		Name:       "CustomFFT",
		Kernels:    []*harmonia.Kernel{fft},
		Iterations: 40,
	}

	sys := harmonia.NewSystem()

	// Characterize it: occupancy, demand, and what the simulator says at
	// the stock configuration.
	r := sys.Sim.Run(fft, 0, harmonia.MaxConfig())
	fmt.Printf("%s at stock config:\n", fft.Name)
	fmt.Printf("  occupancy %.0f%%, demand %.1f ops/byte\n", fft.Occupancy()*100, fft.DemandOpsPerByte())
	fmt.Printf("  time %.3f ms, VALUBusy %.0f%%, MemUnitBusy %.0f%%, icActivity %.2f\n",
		r.Time*1e3, r.Counters.VALUBusy, r.Counters.MemUnitBusy, r.Counters.ICActivity)

	// Retrain the sensitivity predictor with the custom kernel included,
	// exactly as the paper trains on its 25-kernel corpus.
	kernels := append(harmonia.AllKernels(), fft)
	pred, err := sys.TrainPredictor(kernels)
	if err != nil {
		log.Fatal(err)
	}
	// A System's predictor is fixed at construction, so managing the
	// custom kernel takes a System built with the retrained one.
	sys = harmonia.NewSystem(harmonia.WithPredictor(pred))

	fmt.Printf("\npredicted sensitivities at the stock configuration:\n")
	fmt.Printf("  CU count: %.2f   CU freq: %.2f   memory BW: %.2f\n",
		pred.PredictCUs(r.Counters), pred.PredictCUFreq(r.Counters), pred.PredictBandwidth(r.Counters))

	// Run under baseline and Harmonia.
	base, err := sys.Run(app, sys.Baseline())
	if err != nil {
		log.Fatal(err)
	}
	hm, err := sys.Run(app, sys.Harmonia())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nHarmonia vs baseline on %s:\n", app.Name)
	fmt.Printf("  performance %+.2f%%, power %.1f%% saved, ED2 %.1f%% better\n",
		(hm.TotalTime()/base.TotalTime()-1)*100,
		harmonia.Improvement(base.AveragePower(), hm.AveragePower())*100,
		harmonia.Improvement(base.ED2(), hm.ED2())*100)
	final := hm.Runs[len(hm.Runs)-1].Config
	fmt.Printf("  settled configuration: %v\n", final)
}
