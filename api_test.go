package harmonia

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestPowerTunePolicyThroughAPI(t *testing.T) {
	s := system()
	// Stock cap: no throttling, identical to baseline.
	rep, err := s.Run(App("Stencil"), s.PowerTune(250))
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Run(App("Stencil"), s.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTime() > base.TotalTime()*1.001 {
		t.Errorf("PowerTune@250W slower than baseline: %v vs %v", rep.TotalTime(), base.TotalTime())
	}
	// Tight cap: throttling.
	capped, err := s.Run(App("Stencil"), s.PowerTune(110))
	if err != nil {
		t.Fatal(err)
	}
	if capped.AveragePower() >= base.AveragePower() {
		t.Error("110W cap did not reduce power")
	}
	if capped.TotalTime() <= base.TotalTime() {
		t.Error("110W cap came for free; expected throttling cost")
	}
}

func TestAnalyzeThroughAPI(t *testing.T) {
	s := system()
	var mf *Kernel
	for _, k := range AllKernels() {
		if k.Name == "MaxFlops.Main" {
			mf = k
		}
	}
	p := s.Analyze(mf, 0, MaxConfig())
	if p.Boundedness.String() != "compute-bound" {
		t.Errorf("MaxFlops boundedness = %v", p.Boundedness)
	}
	if p.Efficiency() <= 0 || p.Efficiency() > 1.05 {
		t.Errorf("efficiency = %v", p.Efficiency())
	}
}

func TestBalancedConfigsThroughAPI(t *testing.T) {
	s := system()
	var dm *Kernel
	for _, k := range AllKernels() {
		if k.Name == "DeviceMemory.Stream" {
			dm = k
		}
	}
	cfgs := s.BalancedConfigs(dm, 0)
	if len(cfgs) == 0 {
		t.Fatal("no balanced configs")
	}
	for _, c := range cfgs {
		if !c.Valid() {
			t.Fatalf("invalid config %v", c)
		}
	}
}

func powerActivity() Activity {
	return Activity{VALUBusyFrac: 0.6, MemUnitBusyFrac: 0.7, AchievedGBs: 80}
}

func TestMemVoltageScalingThroughAPI(t *testing.T) {
	s := NewSystem()
	fixedRails := s.Power.Rails(Config{
		Compute: ComputeConfig{CUs: 32, Freq: 1000},
		Memory:  MemConfig{BusFreq: 475},
	}, powerActivity())
	s.EnableMemVoltageScaling()
	scaledRails := s.Power.Rails(Config{
		Compute: ComputeConfig{CUs: 32, Freq: 1000},
		Memory:  MemConfig{BusFreq: 475},
	}, powerActivity())
	if scaledRails.Mem >= fixedRails.Mem {
		t.Errorf("voltage scaling did not reduce memory power: %v vs %v",
			scaledRails.Mem, fixedRails.Mem)
	}
}

func TestExportThroughAPI(t *testing.T) {
	s := system()
	rep, err := s.Run(App("XSBench"), s.Baseline())
	if err != nil {
		t.Fatal(err)
	}

	var jsonBuf bytes.Buffer
	if err := WriteReportJSON(&jsonBuf, rep); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(jsonBuf.Bytes()) {
		t.Error("invalid JSON output")
	}

	var csvBuf bytes.Buffer
	if err := WriteRunsCSV(&csvBuf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(csvBuf.String(), "\n")
	if lines != len(rep.Runs)+1 {
		t.Errorf("CSV lines = %d, want %d", lines, len(rep.Runs)+1)
	}

	var traceBuf bytes.Buffer
	if err := WriteTraceCSV(&traceBuf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(traceBuf.String(), "time_s,") {
		t.Error("trace CSV header missing")
	}
}

func TestKernelBuilderThroughAPI(t *testing.T) {
	s := system()
	k, err := StreamingKernel("Api.Stream").Grid(256, 2000).Build()
	if err != nil {
		t.Fatal(err)
	}
	p := s.Analyze(k, 0, MaxConfig())
	if p.Boundedness.String() != "memory-bound" {
		t.Errorf("streaming template boundedness = %v", p.Boundedness)
	}
	c, err := ComputeHeavyKernel("Api.Flops").Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Analyze(c, 0, MaxConfig()); got.Boundedness.String() != "compute-bound" {
		t.Errorf("compute template boundedness = %v", got.Boundedness)
	}
	if _, err := NewKernel("").Build(); err == nil {
		t.Error("unnamed kernel accepted")
	}
	chase, err := PointerChaseKernel("Api.Chase").Build()
	if err != nil {
		t.Fatal(err)
	}
	if chase.L2Thrash <= 0 {
		t.Error("pointer-chase template has no thrash")
	}
}

func TestControllerDecisionLogThroughAPI(t *testing.T) {
	s := system()
	rec := NewTimelineRecorder()
	if _, err := s.RunContext(context.Background(), App("Sort"), s.Harmonia(), RunWithTimeline(rec)); err != nil {
		t.Fatal(err)
	}
	decs := rec.Snapshot().Decisions
	if len(decs) == 0 {
		t.Fatal("empty decision log")
	}
	for _, d := range decs {
		if d.Kernel == "" || d.Source == "" || !d.Commanded.HW().Valid() {
			t.Fatalf("malformed decision %+v", d)
		}
	}
}
