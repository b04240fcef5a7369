package main

import (
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
)

// tinySize runs every layer of every workload in well under a second.
var tinySize = sizes{
	pairAtoms: 256, pairSteps: 20,
	directAtoms: 108, directSteps: 5,
	serveAtoms: 108, serveSteps: 20, serveCkptEvery: 5,
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 7, duration: time.Millisecond, trace: trace,
		root: ".", out: t.TempDir(), sz: tinySize, stdout: io.Discard,
	}
}

// TestEveryMetricEmitted runs each workload at a tiny size in both
// modes and checks the result carries exactly the declared metrics,
// each with its unit, and that the output checks pass.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, w, trace)
			res, err := runOne(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, d.name, m, d.unit)
				}
			}
			if trace {
				checkTrace(t, w, res)
			}
			files, _ := filepath.Glob(filepath.Join(o.out, "*"))
			if want := map[bool]int{false: 1, true: 2}[trace]; len(files) != want {
				t.Errorf("%s trace=%v: wrote %v, want %d files", w, trace, files, want)
			}
		}
	}
}

// checkTrace pins the per-layer structure the traced run must show.
func checkTrace(t *testing.T, w string, res *result) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	switch w {
	case "guarded-pairlist":
		// One pressure per guard segment (one Runner.RunContext each),
		// plus guard's own at the end.
		if segs := float64(tinySize.pairSteps / 10); v("md.pressure_calls") != segs+1 || v("mdrun.run_calls") != segs {
			t.Errorf("guarded-pairlist: pressure calls %v, run calls %v, want %v and %v", v("md.pressure_calls"), v("mdrun.run_calls"), segs+1, segs)
		}
		if v("md.builds") < 1 || v("guard.checkpoints") != 2 || v("md.checkpoint_bytes") <= 0 {
			t.Errorf("guarded-pairlist: builds %v, checkpoints %v, bytes %v", v("md.builds"), v("guard.checkpoints"), v("md.checkpoint_bytes"))
		}
	case "paper-direct":
		if v("md.pressure_calls") != 1 || v("md.builds") != 0 || v("guard.checkpoints") != 0 {
			t.Errorf("paper-direct: pressure calls %v, builds %v, checkpoints %v", v("md.pressure_calls"), v("md.builds"), v("guard.checkpoints"))
		}
	case "serve-jobs":
		if v("serve.events_per_job") != float64(tinySize.serveSteps/10) || v("fleet.attempts_per_job") != 1 || v("parallel.build_s") <= 0 {
			t.Errorf("serve-jobs: events %v, attempts %v, parallel build %v", v("serve.events_per_job"), v("fleet.attempts_per_job"), v("parallel.build_s"))
		}
	}
	if r := v("trace.unattributed_ratio"); r < 0 || r > 0.05 {
		t.Errorf("%s: unattributed ratio %v outside [0, 0.05]", w, r)
	}
}

// TestInjectedForceFaultFails arms a NaN at faults.SiteForces and checks
// that every workload's output checks record a failure instead of
// passing.
func TestInjectedForceFaultFails(t *testing.T) {
	for _, w := range workloads {
		o := tinyOptions(t, w, false)
		// At this size call 8 falls in paper-direct's second job, after
		// the first has set the digest the repeats are compared with.
		o.faults = faults.NewRegistry(1).Arm(faults.Fault{Site: faults.SiteForces, Kind: faults.NaN, Trigger: faults.Trigger{AtCall: 8}})
		res, err := runOne(o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 || res.Metrics["ok_ratio"].Value >= 1 {
			t.Errorf("%s: injected NaN forces passed the checks: %+v", w, res)
		}
	}
}

// TestCalibratorLap checks that a piece is rescaled by the mean of the
// samples taken around it, on one thread and on every CPU at once.
func TestCalibratorLap(t *testing.T) {
	for _, cpus := range [][]int{nil, allowedCPUs()} {
		c := newCalibrator()
		c.cpus = cpus
		c.start()
		secs, scale := c.lap()
		if len(c.samples) != 2 || secs < 0 {
			t.Fatalf("cpus %v: %d samples, %v s", cpus, len(c.samples), secs)
		}
		want := nominalNsPerPair / ((c.samples[0] + c.samples[1]) / 2)
		if !(scale > 0) || scale != want {
			t.Errorf("cpus %v: scale %v, want %v from samples %v", cpus, scale, want, c.samples)
		}
	}
}
