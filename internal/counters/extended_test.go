package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExtendedFeaturesMatchNames(t *testing.T) {
	s := validSet()
	s.NormCUsActive = 0.5
	s.NormCUClock = 0.7
	s.NormMemClock = 0.9
	feats := s.AppendExtendedFeatures(nil)
	names := ExtendedFeatureNames()
	if len(feats) != len(names) {
		t.Fatalf("%d features for %d names", len(feats), len(names))
	}
	// The extended set starts with the bandwidth set...
	for i, v := range s.AppendBandwidthFeatures(nil) {
		if feats[i] != v {
			t.Errorf("feature %d (%s) = %v, want bandwidth value %v", i, names[i], feats[i], v)
		}
	}
	// ...and ends with the DPM-state registers and divergence impact.
	n := len(feats)
	if feats[n-4] != 0.5 || feats[n-3] != 0.7 || feats[n-2] != 0.9 {
		t.Errorf("DPM register features wrong: %v", feats[n-4:])
	}
	if feats[n-1] != s.DivergenceImpact() {
		t.Errorf("divergence impact feature = %v, want %v", feats[n-1], s.DivergenceImpact())
	}
}

func TestDivergenceImpact(t *testing.T) {
	// 40% divergence at 50% VALU busyness -> impact 20.
	s := Set{VALUUtilization: 60, VALUBusy: 50}
	if got := s.DivergenceImpact(); math.Abs(got-20) > 1e-9 {
		t.Errorf("DivergenceImpact = %v, want 20", got)
	}
	// No divergence -> zero impact regardless of busyness.
	s = Set{VALUUtilization: 100, VALUBusy: 99}
	if got := s.DivergenceImpact(); got != 0 {
		t.Errorf("DivergenceImpact = %v, want 0", got)
	}
}

func TestValuesRoundTrip(t *testing.T) {
	s := validSet()
	s.NormCUsActive, s.NormCUClock, s.NormMemClock = 0.25, 0.3, 0.4
	vs := s.Values()
	if len(vs) != len(FieldNames()) {
		t.Fatalf("%d values for %d names", len(vs), len(FieldNames()))
	}
	back, err := FromValues(vs)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip lost data: %+v vs %+v", back, s)
	}
	if _, err := FromValues(vs[:3]); err == nil {
		t.Error("short vector accepted")
	}
}

// Property: blending x toward x leaves x, blending a toward b at alpha
// 1 lands on b, and every counter moves to a + alpha·(b − a) bit for
// bit, the lerp the value form of Blend returned.
func TestBlendProperties(t *testing.T) {
	f := func(a, b uint8, alpha uint8) bool {
		sa := validSet()
		sa.VALUBusy = float64(a) / 255 * 100
		sb := validSet()
		sb.VALUBusy = float64(b) / 255 * 100
		sb.MemUnitBusy = 75
		w := float64(alpha) / 255
		idem, full, mid := sa, sa, sa
		idem.Blend(&sa, w)
		full.Blend(&sb, 1)
		mid.Blend(&sb, w)
		if math.Abs(idem.VALUBusy-sa.VALUBusy) > 1e-9 {
			return false
		}
		// alpha = 1 lands on the new sample up to floating-point
		// rounding of a + (b - a).
		fv, bv := full.Values(), sb.Values()
		for i := range fv {
			if math.Abs(fv[i]-bv[i]) > 1e-9 {
				return false
			}
		}
		av, mv := sa.Values(), mid.Values()
		for i := range mv {
			if math.Float64bits(mv[i]) != math.Float64bits(av[i]+w*(bv[i]-av[i])) {
				return false
			}
		}
		// Blend result is element-wise between the endpoints.
		lo, hi := math.Min(sa.VALUBusy, sb.VALUBusy), math.Max(sa.VALUBusy, sb.VALUBusy)
		return mid.VALUBusy >= lo-1e-9 && mid.VALUBusy <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
