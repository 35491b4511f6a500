// Command harmonia-train rebuilds the sensitivity predictors of the
// paper's Section 4 on the simulated platform: it measures ground-truth
// per-tunable sensitivities for every suite kernel, trains the linear
// models (the Table 3 analogue), and prints coefficients, per-kernel
// predictions, and accuracy.
//
// Usage:
//
//	harmonia-train [-verbose]
package main

import (
	"flag"
	"fmt"

	"harmonia/internal/gpusim"
	"harmonia/internal/sensitivity"
	"harmonia/internal/workloads"
)

func main() {
	verbose := flag.Bool("verbose", false, "print per-kernel truths and predictions")
	flag.Parse()

	sim := gpusim.Default()
	kernels := workloads.AllKernels()

	fmt.Printf("measuring ground-truth sensitivities for %d kernels...\n", len(kernels))
	kernelPts := sensitivity.BuildTrainingSet(sim, kernels)

	fmt.Println("training on per-configuration rows (Section 4.2 scale)...")
	cfgSet := sensitivity.BuildConfigTrainingSet(sim, kernels)
	pred, err := sensitivity.Train(cfgSet)
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nTable 3 (platform-trained) — %d training rows\n", cfgSet.Len())
	fmt.Printf("  bandwidth sensitivity model (corr %.3f):\n    %v\n", pred.Bandwidth.Corr, pred.Bandwidth)
	fmt.Printf("  compute sensitivity model   (corr %.3f):\n    %v\n", pred.Compute.Corr, pred.Compute)

	paper := sensitivity.PaperModel()
	fmt.Println("\npublished Table 3 coefficients (AMD HD 7970, for reference):")
	fmt.Printf("  bandwidth: %v\n  compute:   %v\n", paper.Bandwidth, paper.Compute)

	acc := sensitivity.Evaluate(pred, kernelPts)
	fmt.Printf("\nprediction error (MAE): bandwidth %.4f, compute %.4f, CU %.4f, CU-freq %.4f\n",
		acc.BandwidthMAE, acc.ComputeMAE, acc.CUsMAE, acc.CUFreqMAE)
	fmt.Println("paper reports 0.0303 (bandwidth) and 0.0571 (compute) on hardware")

	if *verbose {
		fmt.Printf("\n%-28s %6s %6s %6s | %6s %6s %6s | bins\n",
			"kernel", "sCU", "sCUF", "sBW", "pCU", "pCUF", "pBW")
		for _, pt := range kernelPts {
			bins := pred.PredictBins(pt.Features)
			fmt.Printf("%-28s %6.3f %6.3f %6.3f | %6.3f %6.3f %6.3f | %v/%v/%v\n",
				pt.Kernel, pt.Truth.CUs, pt.Truth.CUFreq, pt.Truth.Bandwidth,
				pred.PredictCUs(pt.Features), pred.PredictCUFreq(pt.Features),
				pred.PredictBandwidth(pt.Features),
				bins.CUs, bins.CUFreq, bins.MemFreq)
		}
	}
}
