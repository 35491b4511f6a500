package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func validSet() Set {
	return Set{
		VALUBusy: 60, VALUUtilization: 90, MemUnitBusy: 40,
		MemUnitStalled: 10, WriteUnitStalled: 5,
		NormVGPR: 0.25, NormSGPR: 0.3, ICActivity: 0.5,
		L2HitRate: 0.4, Occupancy: 0.7,
		VALUInsts: 1e6, VFetchInsts: 2e5, VWriteInsts: 1e5,
	}
}

func TestCToMIntensity(t *testing.T) {
	s := validSet()
	// (60 * 90/100) / 40 * 100 = 135 -> clamped to 100.
	if got := s.CToMIntensity(); got != 100 {
		t.Errorf("CToMIntensity = %v, want clamped 100", got)
	}
	s.MemUnitBusy = 80
	// (60*0.9)/80*100 = 67.5
	if got := s.CToMIntensity(); math.Abs(got-67.5) > 1e-9 {
		t.Errorf("CToMIntensity = %v, want 67.5", got)
	}
	s.MemUnitBusy = 0
	if got := s.CToMIntensity(); got != 100 {
		t.Errorf("CToMIntensity with idle memory = %v, want 100", got)
	}
}

func TestBranchDivergence(t *testing.T) {
	s := Set{VALUUtilization: 94}
	if got := s.BranchDivergence(); math.Abs(got-6) > 1e-9 {
		t.Errorf("BranchDivergence = %v, want 6", got)
	}
}

func TestOpsPerByte(t *testing.T) {
	s := Set{VALUInsts: 1000}
	// 1000 wavefront insts x 64 lanes / 64000 bytes = 1 op/byte.
	if got := s.OpsPerByte(64000); math.Abs(got-1) > 1e-12 {
		t.Errorf("OpsPerByte = %v, want 1", got)
	}
	if got := s.OpsPerByte(0); !math.IsInf(got, 1) {
		t.Errorf("OpsPerByte(0) = %v, want +Inf", got)
	}
}

func TestFeatureVectorsMatchNames(t *testing.T) {
	s := validSet()
	if got, want := len(s.AppendBandwidthFeatures(nil)), len(BandwidthFeatureNames()); got != want {
		t.Errorf("bandwidth features %d names %d", got, want)
	}
	if got, want := len(s.AppendComputeFeatures(nil)), len(ComputeFeatureNames()); got != want {
		t.Errorf("compute features %d names %d", got, want)
	}
	// Spot-check ordering against Table 3's row order.
	bf := s.AppendBandwidthFeatures(nil)
	if bf[0] != s.VALUUtilization || bf[4] != s.ICActivity || bf[6] != s.NormSGPR {
		t.Errorf("bandwidth feature order wrong: %v", bf)
	}
	cf := s.AppendComputeFeatures(nil)
	if cf[0] != s.CToMIntensity() || cf[1] != s.NormVGPR {
		t.Errorf("compute feature order wrong: %v", cf)
	}
}

func TestAverage(t *testing.T) {
	a := Set{VALUBusy: 10, NormVGPR: 0.2, VALUInsts: 100}
	b := Set{VALUBusy: 30, NormVGPR: 0.4, VALUInsts: 300}
	avg := Average([]Set{a, b})
	if math.Abs(avg.VALUBusy-20) > 1e-9 || math.Abs(avg.NormVGPR-0.3) > 1e-9 || math.Abs(avg.VALUInsts-200) > 1e-9 {
		t.Errorf("Average = %+v", avg)
	}
	if got := Average(nil); got != (Set{}) {
		t.Errorf("Average(nil) = %+v, want zero", got)
	}
}

// Property: averaging N copies of the same set returns that set.
func TestAverageIdempotentProperty(t *testing.T) {
	f := func(busy uint8, n uint8) bool {
		s := validSet()
		s.VALUBusy = float64(busy) / 255 * 100
		count := int(n%7) + 1
		sets := make([]Set, count)
		for i := range sets {
			sets[i] = s
		}
		avg := Average(sets)
		return math.Abs(avg.VALUBusy-s.VALUBusy) < 1e-9 &&
			math.Abs(avg.Occupancy-s.Occupancy) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if err := validSet().Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	bad := validSet()
	bad.VALUBusy = 150
	if err := bad.Validate(); err == nil {
		t.Error("VALUBusy=150 accepted")
	}
	bad = validSet()
	bad.NormVGPR = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative NormVGPR accepted")
	}
	bad = validSet()
	bad.VALUInsts = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative VALUInsts accepted")
	}
	bad = validSet()
	bad.Occupancy = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN occupancy accepted")
	}
}

func TestTable2Complete(t *testing.T) {
	rows := Table2()
	if len(rows) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		if r.Name == "" || r.Text == "" {
			t.Errorf("incomplete Table 2 row: %+v", r)
		}
		names[r.Name] = true
	}
	for _, want := range append(BandwidthFeatureNames(), ComputeFeatureNames()...) {
		if !names[want] {
			t.Errorf("Table 2 missing model feature %q", want)
		}
	}
}
