package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/md"
)

// TestReferenceAndGuardedRunsAgree pins that the same -method,
// -precision and -workers flags select the same kernels in reference
// mode and under -guard: the final state each mode checkpoints must be
// byte-identical. Reference mode saves it with -save-checkpoint; the
// supervisor writes its final checkpoint into -checkpoint-dir.
func TestReferenceAndGuardedRunsAgree(t *testing.T) {
	const steps = 20
	pairs := []struct{ method, precision string }{
		{"direct", "f64"}, {"pairlist", "f64"}, {"cellgrid", "f64"},
		{"pardirect", "f64"}, {"parpairlist", "f64"}, {"parcellgrid", "f64"},
		{"pairlist", "f32"}, {"parpairlist", "f32"}, {"cellgrid", "f32"},
	}
	for _, p := range pairs {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-%s/w%d", p.method, p.precision, workers), func(t *testing.T) {
				dir := t.TempDir()
				o := opts("reference")
				o.atoms = 500 // cellgrid needs >= 3 cutoff-wide cells per edge
				o.steps = steps
				o.method, o.precision, o.workers = p.method, p.precision, workers

				ref := o
				ref.saveCkpt = filepath.Join(dir, "reference.mdcp")
				if err := run(ref); err != nil {
					t.Fatalf("reference: %v", err)
				}
				g := o
				g.guard = true
				g.ckptDir = filepath.Join(dir, "guard")
				g.ckptEvery = steps
				if err := run(g); err != nil {
					t.Fatalf("guard: %v", err)
				}

				want, err := os.ReadFile(ref.saveCkpt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(g.ckptDir, fmt.Sprintf("ckpt-%09d.mdcp", steps)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("guarded final state differs from the reference run's")
				}
			})
		}
	}
}

// TestResumeKeepsCheckpointNumerics: reference mode resumed with
// -load-checkpoint keeps the checkpoint's own cutoff, time step and
// potential shift, and counts -dump-every from the resume point.
func TestResumeKeepsCheckpointNumerics(t *testing.T) {
	dir := t.TempDir()
	st, err := lattice.Generate(lattice.Config{
		N: 500, Density: core.StdDensity, Temperature: core.StdTemperature,
		Kind: lattice.FCC, Seed: core.StdSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := md.Params[float64]{Box: st.Box, Cutoff: 2.2, Dt: 0.002, Shifted: true}
	sys, err := md.NewSystem(st, p)
	if err != nil {
		t.Fatal(err)
	}
	sys.Steps = 3
	in := filepath.Join(dir, "in.mdcp")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.WriteCheckpoint(f, sys); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	o := opts("reference")
	o.method = "pairlist"
	o.steps = 5
	o.loadCkpt = in
	o.saveCkpt = filepath.Join(dir, "out.mdcp")
	o.dump = filepath.Join(dir, "t.xyz")
	o.dumpEvery = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(o.saveCkpt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := md.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.Steps != 8 || out.P.Cutoff != p.Cutoff || out.P.Dt != p.Dt || !out.P.Shifted {
		t.Fatalf("resumed run ended at step %d with cutoff %v dt %v shifted %v; want step 8 and the checkpoint's %v %v true",
			out.Steps, out.P.Cutoff, out.P.Dt, out.P.Shifted, p.Cutoff, p.Dt)
	}
	traj, err := os.ReadFile(o.dump)
	if err != nil {
		t.Fatal(err)
	}
	// Run-local steps 2 and 4 (absolute 5 and 7), not absolute 4, 6, 8.
	if frames := strings.Count(string(traj), "\nstep "); frames != 2 {
		t.Fatalf("wrote %d frames after resume, want 2", frames)
	}
}
