package main

import (
	"os"
	"path/filepath"
	"testing"
)

func opts(dev string) runOpts {
	return runOpts{
		devName: dev, atoms: 108, steps: 2, nspe: 2, skin: 0.4,
		mode: "amortized", threading: "full", validate: true, dumpEvery: 1,
	}
}

func TestRunEveryDevice(t *testing.T) {
	for _, dev := range []string{"reference", "opteron", "cell", "gpu", "mta"} {
		if err := run(opts(dev)); err != nil {
			t.Fatalf("%s: %v", dev, err)
		}
	}
}

func TestRunPPEOnlyAndModes(t *testing.T) {
	o := opts("cell")
	o.ppeOnly = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o = opts("cell")
	o.mode = "respawn"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o = opts("mta")
	o.threading = "partial"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	o := opts("warp-drive")
	if err := run(o); err == nil {
		t.Fatal("unknown device accepted")
	}
	o = opts("cell")
	o.mode = "sometimes"
	if err := run(o); err == nil {
		t.Fatal("unknown cell mode accepted")
	}
	o = opts("mta")
	o.threading = "diagonal"
	if err := run(o); err == nil {
		t.Fatal("unknown threading accepted")
	}
	o = opts("reference")
	o.thermostat = "maxwell-daemon"
	if err := run(o); err == nil {
		t.Fatal("unknown thermostat accepted")
	}
}

func TestReferenceForceMethods(t *testing.T) {
	for _, m := range []string{"direct", "pairlist", "cellgrid"} {
		o := opts("reference")
		o.atoms = 864 // cellgrid needs >= 3 cutoff-wide cells per edge
		o.method = m
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	o := opts("reference")
	o.method = "quantum"
	if err := run(o); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestReferenceMixedPrecision(t *testing.T) {
	for _, m := range []string{"pairlist", "parpairlist", "cellgrid"} {
		o := opts("reference")
		o.atoms = 864 // cellgrid needs >= 3 cutoff-wide cells per edge
		o.method = m
		o.precision = "f32"
		if err := run(o); err != nil {
			t.Fatalf("%s f32: %v", m, err)
		}
	}
}

func TestGuardedAndBatchMixedPrecision(t *testing.T) {
	// -precision f32 must select the F32 mdrun methods under -guard
	// and -batch too, not silently fall back to float64.
	o := opts("reference")
	o.atoms = 256
	o.method = "parpairlist"
	o.precision = "f32"
	o.guard = true
	o.steps = 4
	if err := run(o); err != nil {
		t.Fatalf("guarded f32: %v", err)
	}
	o.guard = false
	o.batch = 2
	o.maxInflight = 2
	if err := run(o); err != nil {
		t.Fatalf("batch f32: %v", err)
	}
	o = opts("reference")
	o.method = "direct"
	o.precision = "f32"
	o.guard = true
	if err := run(o); err == nil {
		t.Fatal("guarded -precision f32 accepted for -method direct")
	}
}

func TestPrecisionFlagValidation(t *testing.T) {
	// f32 is a reference-device pair-kernel option: only the methods
	// with a mixed-precision kernel accept it.
	o := opts("reference")
	o.method = "direct"
	o.precision = "f32"
	if err := run(o); err == nil {
		t.Fatal("-precision f32 accepted for -method direct")
	}
	o = opts("reference")
	o.method = "pairlist"
	o.precision = "f16"
	if err := run(o); err == nil {
		t.Fatal("unknown precision accepted")
	}
}

func TestReferenceParallelForceMethods(t *testing.T) {
	for _, m := range []string{"pardirect", "parpairlist", "parcellgrid"} {
		for _, workers := range []int{0, 1, 3} {
			o := opts("reference")
			o.atoms = 864 // parcellgrid needs >= 3 cutoff-wide cells per edge
			o.method = m
			o.workers = workers
			if err := run(o); err != nil {
				t.Fatalf("%s workers=%d: %v", m, workers, err)
			}
		}
	}
}

func TestReferenceDumpAndThermostat(t *testing.T) {
	dir := t.TempDir()
	o := opts("reference")
	o.steps = 6
	o.dump = filepath.Join(dir, "t.xyz")
	o.dumpEvery = 2
	o.thermostat = "rescale"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty trajectory")
	}
}

func TestCheckpointSaveAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	o := opts("reference")
	o.steps = 5
	o.saveCkpt = ckpt
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o2 := opts("reference")
	o2.steps = 5
	o2.loadCkpt = ckpt
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
	if err := run(runOpts{devName: "reference", atoms: 108, steps: 1, loadCkpt: "/nonexistent"}); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}
