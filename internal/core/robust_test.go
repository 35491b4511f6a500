package core

import (
	"bytes"
	"testing"

	"harmonia/internal/faults"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/session"
	"harmonia/internal/timeline"
	"harmonia/internal/workloads"
)

func naiveOptions() Options {
	return Options{Predictor: predictor(), DisableHardening: true}
}

// TestCleanPathEquivalence is the acceptance gate for the hardening
// layer: with no faults injected, the hardened controller must
// reproduce the naive (seed) controller's results bit-for-bit on the
// whole 14-application suite — every decision and therefore every ED²
// identical. The hardening layer only reacts to evidence of faults, so
// a clean platform must never trigger it: the two runs' timelines, which
// name every boundary's action, are byte-identical.
func TestCleanPathEquivalence(t *testing.T) {
	for _, app := range workloads.Suite() {
		run := func(opts Options) (*session.Report, []byte) {
			s := session.New(New(opts))
			s.Timeline = timeline.New()
			rep, err := s.Run(app)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			var b bytes.Buffer
			if err := s.Timeline.Snapshot().WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			return rep, b.Bytes()
		}
		repH, tlH := run(Options{Predictor: predictor()})
		repN, tlN := run(naiveOptions())

		if repH.ED2() != repN.ED2() {
			t.Errorf("%s: hardened ED2 %v != naive ED2 %v", app.Name, repH.ED2(), repN.ED2())
		}
		if len(repH.Runs) != len(repN.Runs) {
			t.Fatalf("%s: run counts differ", app.Name)
		}
		for i := range repH.Runs {
			if repH.Runs[i].Config != repN.Runs[i].Config {
				t.Fatalf("%s run %d: hardened %v != naive %v",
					app.Name, i, repH.Runs[i].Config, repN.Runs[i].Config)
			}
		}
		if !bytes.Equal(tlH, tlN) {
			t.Errorf("%s: hardened and naive timelines differ", app.Name)
		}
	}
}

// converge drives a hardened controller on the clean simulator until it
// settles, returning the settled config and the iteration reached. The
// hardening layer must not fire on the way.
func converge(t *testing.T, c *Controller, k *workloads.Kernel, n int) (hw.Config, int) {
	t.Helper()
	for i, b := range boundaries(t, c, k, n) {
		switch b.Source {
		case "reject", "retry", "degrade", "recover":
			t.Fatalf("boundary %d: hardening fired on a clean platform (%s)", i, b.Source)
		}
	}
	return c.Decide(k.Name, n), n
}

// TestFaultHandlingPaths exercises the hardened controller's reactions
// to each telemetry fault class, table-driven.
func TestFaultHandlingPaths(t *testing.T) {
	sim := gpusim.Default()
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"noisy sample rejected, no spurious CG jump", func(t *testing.T) {
			c := New(Options{Predictor: predictor()})
			k := kernelByName(t, "MaxFlops.Main")
			settled, iter := converge(t, c, k, 30)

			// One wildly noisy observation: VALUBusy collapses as if the
			// kernel became memory bound. The naive controller CG-jumps on
			// this; the hardened one must reject it and hold.
			res := sim.Run(k, iter, settled)
			res.Counters.VALUBusy /= 4
			res.Counters.MemUnitBusy = 95
			if got := observe(t, c, k.Name, iter, res).Source; got != "reject" {
				t.Errorf("noisy sample's action = %v, want reject", got)
			}
			if got := c.Decide(k.Name, iter+1); got != settled {
				t.Errorf("noisy sample moved config %v -> %v", settled, got)
			}
		}},
		{"stuck tunable retried then adopted", func(t *testing.T) {
			c := New(Options{Predictor: predictor()})
			k := kernelByName(t, "MaxFlops.Main")
			_, iter := converge(t, c, k, 6)

			// The hardware sticks at one fewer CU level than commanded:
			// every readback reports `stuck`, not the command. The
			// controller must re-issue the command verifyRetries times,
			// then give up and adopt reality.
			commanded := c.Decide(k.Name, iter)
			stuck := hw.TunableCUs.WithLevel(commanded, hw.TunableCUs.LevelFor(commanded)-1)
			if stuck == commanded {
				stuck = hw.TunableCUs.WithLevel(commanded, hw.TunableCUs.LevelFor(commanded)+1)
			}
			for i := 0; i < verifyRetries; i++ {
				if got := observe(t, c, k.Name, iter, sim.Run(k, iter, stuck)).Source; got != "retry" {
					t.Errorf("retry %d: action = %v, want retry", i, got)
				}
				if got := c.Decide(k.Name, iter+1); got != commanded {
					t.Fatalf("retry %d: command changed %v -> %v", i, commanded, got)
				}
			}
			// Retries exhausted: the next mismatch adopts the stuck state.
			if got := observe(t, c, k.Name, iter, sim.Run(k, iter, stuck)).Source; got != "hold" {
				t.Errorf("adoption action = %v, want hold", got)
			}
			if got := c.Decide(k.Name, iter+1); got != stuck {
				t.Fatalf("after retries, want adopted %v, got %v", stuck, got)
			}
		}},
		{"watchdog degrades after M unreliable samples and recovers", func(t *testing.T) {
			c := New(Options{Predictor: predictor()})
			k := kernelByName(t, "CoMD.AdvanceVelocity")
			settled, iter := converge(t, c, k, 30)

			// M consecutive garbage samples (outliers at the settled
			// config) must trip the watchdog: M-1 rejects, then degrade.
			for i := 0; i < watchdogM; i++ {
				res := sim.Run(k, iter+i, settled)
				res.Counters.VALUBusy = 0
				res.Counters.MemUnitBusy = 100
				want := "reject"
				if i == watchdogM-1 {
					want = "degrade"
				}
				if got := observe(t, c, k.Name, iter+i, res).Source; got != want {
					t.Fatalf("unreliable sample %d: action = %v, want %v", i, got, want)
				}
			}
			held := c.Decide(k.Name, iter+watchdogM)
			if !held.Valid() {
				t.Fatalf("degraded hold config invalid: %v", held)
			}

			// Telemetry stabilizes: recoverN clean samples end degraded
			// mode automatically; until then the kernel stays degraded.
			for i := 0; i < recoverN; i++ {
				want := "degrade"
				if i == recoverN-1 {
					want = "recover"
				}
				if got := observe(t, c, k.Name, iter+watchdogM+i, sim.Run(k, 0, held)).Source; got != want {
					t.Fatalf("clean sample %d: action = %v, want %v", i, got, want)
				}
			}
		}},
		{"repeated noise bursts do not dither config", func(t *testing.T) {
			// Alternating clean/noisy samples: the hardened controller
			// must not bounce between configurations (spurious
			// revert/dither), only reject the bad samples.
			c := New(Options{Predictor: predictor()})
			k := kernelByName(t, "Sort.BottomScan")
			settled, iter := converge(t, c, k, 50)
			cg := 0
			for i := 0; i < 12; i++ {
				res := sim.Run(k, iter+i, settled)
				if i%2 == 0 {
					res.Counters.VALUBusy *= 0.3
				}
				if observe(t, c, k.Name, iter+i, res).Source == "cg" {
					cg++
				}
				got := c.Decide(k.Name, iter+i+1)
				if dist(got, settled) > 1 {
					t.Fatalf("iteration %d: config ran away: %v -> %v", i, settled, got)
				}
			}
			if cg != 0 {
				t.Errorf("noise bursts caused %d spurious CG jumps", cg)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}

// dist is the L1 grid distance between two configurations.
func dist(a, b hw.Config) int {
	d := 0
	for _, tu := range hw.Tunables() {
		la, lb := tu.LevelFor(a), tu.LevelFor(b)
		if la > lb {
			d += la - lb
		} else {
			d += lb - la
		}
	}
	return d
}

// TestHardenedSurvivesInjectedFaultSession drives the hardened and the
// naive controller through identical fault-injected sessions and checks
// the hardened one never emits an illegal configuration and engages its
// machinery.
func TestHardenedSurvivesInjectedFaultSession(t *testing.T) {
	app := workloads.ByName("Graph500")
	if app == nil {
		t.Fatal("Graph500 missing from suite")
	}
	sess := session.New(New(Options{Predictor: predictor()}))
	sess.Faults = faults.New(faults.Profile(99, 1))
	sess.Timeline = timeline.New()
	rep, err := sess.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if !run.Config.Valid() || !run.Commanded.Valid() {
			t.Fatalf("illegal config in faulted run: %+v", run)
		}
	}
	engaged := 0
	for _, a := range timeline.Census(sess.Timeline.Snapshot().Decisions) {
		if a.Source == "reject" || a.Source == "retry" {
			engaged += a.N
		}
	}
	if engaged == 0 {
		t.Error("full-intensity faults never engaged the hardening layer")
	}
}
