package main

// The traced run cannot reach inside the program (this benchmark
// changes no program code), so it drives the same work through the
// layers' public functions, in the order the layer above calls them,
// and opens one span around each call. shadowRunner is mdrun.Runner's
// step loop and shadowGuard is guard.Supervisor's segment loop, for
// the force methods and thermostats the workloads use. Every traced
// job is checked to end in the bitwise-identical state the real layer
// reaches from the same inputs, so the spans describe the program's
// own computation.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/vec"
)

// forceStats counts the pair work of one traced job.
type forceStats struct {
	calls    int
	pairs    float64 // pairs the kernel examined, summed over calls
	builds   int
	lastPair int // pairlist size after the latest build
}

// shadowRunner mirrors mdrun.Runner for Direct, Pairlist (serial or on
// a shared build engine) and CellGridF32, under NVE, Rescale or
// Berendsen.
type shadowRunner struct {
	t   *tracer
	job int
	cfg mdrun.Config
	sys *md.System[float64]

	nl    *md.NeighborList[float64]
	mx    *md.Mirror32
	cl    *md.CellList[float32]
	therm md.Thermostat[float64]
	msd   *md.MSD
	fs    forceStats
}

// newShadowRunner mirrors mdrun.New: generate the lattice, build the
// system (one direct force evaluation), wire forces and observables.
func newShadowRunner(t *tracer, job, parent int, cfg mdrun.Config) (*shadowRunner, error) {
	if cfg.PairlistSkin == 0 {
		cfg.PairlistSkin = 0.4
	}
	if cfg.RescaleInterval == 0 {
		cfg.RescaleInterval = 10
	}
	if cfg.Tau == 0 {
		cfg.Tau = 25 * cfg.Dt
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 10
	}
	r := &shadowRunner{t: t, job: job, cfg: cfg}
	var st *lattice.State
	var err error
	t.do("lattice.generate", job, parent, func(int) {
		st, err = lattice.Generate(lattice.Config{
			N: cfg.Atoms, Density: cfg.Density, Temperature: cfg.Temperature,
			Kind: cfg.Lattice, Seed: cfg.Seed,
		})
	})
	if err != nil {
		return nil, err
	}
	t.do("md.new_system", job, parent, func(int) {
		r.sys, err = md.NewSystem(st, md.Params[float64]{Box: st.Box, Cutoff: cfg.Cutoff, Dt: cfg.Dt, Shifted: cfg.Shifted})
	})
	if err != nil {
		return nil, err
	}
	switch cfg.Method {
	case mdrun.Direct:
	case mdrun.Pairlist:
		if r.nl, err = md.NewNeighborList[float64](cfg.PairlistSkin); err != nil {
			return nil, err
		}
	case mdrun.CellGridF32:
		if r.mx, err = md.NewMirror32(r.sys.P); err != nil {
			return nil, err
		}
		if r.cl, err = md.NewCellList(r.mx.P.Box, r.mx.P.Cutoff); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("perfbench: no traced composition for method %v", cfg.Method)
	}
	switch cfg.Thermostat {
	case mdrun.NVE:
	case mdrun.Rescale:
		r.therm, err = md.NewRescaleThermostat(cfg.Temperature, cfg.RescaleInterval)
	case mdrun.Berendsen:
		r.therm, err = md.NewBerendsenThermostat(cfg.Temperature, cfg.Dt, cfg.Tau)
	default:
		err = fmt.Errorf("perfbench: no traced composition for thermostat %v", cfg.Thermostat)
	}
	if err != nil {
		return nil, err
	}
	r.msd = md.NewMSD(r.sys.P.Box, r.sys.Pos)
	return r, nil
}

// forces is the runner's force closure, one span per public call.
func (r *shadowRunner) forces(parent int) (float64, error) {
	t, job, sys := r.t, r.job, r.sys
	var pe float64
	var err error
	switch r.cfg.Method {
	case mdrun.Direct:
		t.do("md.force", job, parent, func(int) { pe = md.ComputeForces(sys.P, sys.Pos, sys.Acc) })
		n := float64(sys.N())
		r.fs.pairs += n * (n - 1) / 2
	case mdrun.Pairlist:
		t.do("md.build", job, parent, func(id int) {
			if !r.nl.Stale(sys.P, sys.Pos) {
				return
			}
			if be := r.cfg.BuildEngine; be != nil {
				t.do("parallel.build", job, id, func(int) { err = be.BuildPairlist(context.Background(), r.nl, sys.P, sys.Pos) })
			} else {
				r.nl.Build(sys.P, sys.Pos)
			}
		})
		if err != nil {
			return 0, err
		}
		if b := r.nl.Builds(); b != r.fs.builds {
			r.fs.builds = b
			r.fs.lastPair = r.nl.PairCount()
		}
		t.do("md.force", job, parent, func(int) { pe = r.nl.Forces(sys.P, sys.Pos, sys.Acc) })
		r.fs.pairs += float64(r.fs.lastPair)
	case mdrun.CellGridF32:
		t.do("md.mirror_refresh", job, parent, func(int) { r.mx.RefreshSystem(sys) })
		t.do("md.force", job, parent, func(int) { pe = md.ForcesCellMixed(r.cl, r.mx.P, r.mx.Pos, sys.Acc) })
	}
	r.fs.calls++
	if f := faults.Fire(r.cfg.Faults, faults.SiteForces); f != nil {
		faults.CorruptPlane(f.Kind, sys.Acc.X)
	}
	return pe, nil
}

// run mirrors mdrun.Runner.RunContext, including the final pressure
// it computes (and guard discards).
func (r *shadowRunner) run(steps, parent int) error {
	t, job, sys := r.t, r.job, r.sys
	id := t.begin("mdrun.run", job, parent)
	defer t.end(id)
	var tempSum float64
	for s := 1; s <= steps; s++ {
		var err error
		t.do("md.step", job, id, func(step int) {
			err = sys.StepWithE(func() (float64, error) { return r.forces(step) })
		})
		if err != nil {
			return fmt.Errorf("step %d: %w", sys.Steps+1, err)
		}
		t.do("mdrun.observe", job, id, func(int) {
			if r.therm != nil {
				r.therm.Apply(sys.Vel, sys.Temperature())
				sys.KE = md.KineticEnergy(sys.Vel)
			}
			err = r.msd.Track(sys.Pos)
			if s%r.cfg.SampleEvery == 0 {
				tempSum += sys.Temperature()
			}
		})
		if err != nil {
			return err
		}
	}
	t.do("md.pressure", job, id, func(int) { _ = md.Pressure(sys.P, sys.Pos, sys.Temperature()) })
	_ = r.msd.Value()
	return nil
}

// shadowGuard mirrors guard.Supervisor without the recovery path: an
// incident ends the traced job as a failure instead of a rollback.
type shadowGuard struct {
	t    *tracer
	job  int
	cfg  guard.Config
	r    *shadowRunner
	snap *md.System[float64]
	e0   float64

	checkpoints int
	ckptBytes   int64
}

// newShadowGuard mirrors guard.New with default cadences filled in the
// way guard fills them.
func newShadowGuard(t *tracer, job, parent int, cfg guard.Config) (*shadowGuard, error) {
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = 10
	}
	if cfg.MaxEnergyDrift == 0 {
		cfg.MaxEnergyDrift = 0.05
	}
	if cfg.MaxTempFactor == 0 {
		cfg.MaxTempFactor = 100
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 100
	}
	if cfg.KeepCheckpoints == 0 {
		cfg.KeepCheckpoints = 3
	}
	g := &shadowGuard{t: t, job: job, cfg: cfg}
	id := t.begin("guard.new", job, parent)
	defer t.end(id)
	r, err := newShadowRunner(t, job, id, cfg.Run)
	if err != nil {
		return nil, err
	}
	g.r = r
	t.do("md.clone", job, id, func(int) { g.snap = r.sys.Clone() })
	g.e0 = r.sys.TotalEnergy()
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("perfbench: checkpoint dir: %w", err)
		}
	}
	return g, nil
}

// run mirrors guard.Supervisor.RunContext's committed-segment path.
func (g *shadowGuard) run(steps, parent int) error {
	t, job := g.t, g.job
	id := t.begin("guard.run", job, parent)
	defer t.end(id)
	sys := g.r.sys
	target := sys.Steps + steps
	lastCkpt := sys.Steps
	if err := g.checkpoint(id); err != nil {
		return err
	}
	for sys.Steps < target {
		seg := min(g.cfg.CheckEvery, target-sys.Steps)
		var err error
		t.do("guard.segment", job, id, func(segID int) {
			if err = g.r.run(seg, segID); err != nil {
				return
			}
			t.do("guard.check", job, segID, func(int) { err = g.healthCheck() })
			if err != nil {
				return
			}
			if cur := sys.Steps; cur-lastCkpt >= g.cfg.CheckpointEvery || cur >= target {
				if err = g.checkpoint(segID); err != nil {
					return
				}
				lastCkpt = cur
			}
			if g.cfg.OnSegment != nil {
				g.cfg.OnSegment(guard.Progress{Step: sys.Steps, Energy: sys.TotalEnergy(), Temperature: sys.Temperature(), PE: sys.PE})
			}
		})
		if err != nil {
			return err
		}
	}
	t.do("md.pressure", job, id, func(int) { _ = md.Pressure(sys.P, sys.Pos, sys.Temperature()) })
	return nil
}

// healthCheck is guard's watchdog scan: non-finite state, temperature
// explosion, NVE energy drift.
func (g *shadowGuard) healthCheck() error {
	sys := g.r.sys
	for i := 0; i < sys.N(); i++ {
		if !finiteV3(sys.Pos.At(i)) || !finiteV3(sys.Vel.At(i)) || !finiteV3(sys.Acc.At(i)) {
			return fmt.Errorf("guard incident: non-finite state at atom %d, step %d", i, sys.Steps)
		}
	}
	e := sys.TotalEnergy()
	if !finite(e) {
		return fmt.Errorf("guard incident: non-finite energy at step %d", sys.Steps)
	}
	if g.cfg.MaxTempFactor > 0 && g.cfg.Run.Temperature > 0 && sys.Temperature() > g.cfg.MaxTempFactor*g.cfg.Run.Temperature {
		return fmt.Errorf("guard incident: temperature explosion at step %d", sys.Steps)
	}
	if g.cfg.Run.Thermostat == mdrun.NVE && g.cfg.MaxEnergyDrift > 0 {
		if drift := math.Abs(e-g.e0) / math.Max(math.Abs(g.e0), 1); drift > g.cfg.MaxEnergyDrift {
			return fmt.Errorf("guard incident: energy drift %.3g at step %d", drift, sys.Steps)
		}
	}
	return nil
}

func finiteV3(v vec.V3[float64]) bool { return finite(v.X) && finite(v.Y) && finite(v.Z) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkpoint mirrors guard's in-memory snapshot plus its atomic file
// protocol: temp file, md.WriteCheckpoint, fsync, rename, directory
// fsync, prune to the newest KeepCheckpoints.
func (g *shadowGuard) checkpoint(parent int) error {
	t, job := g.t, g.job
	id := t.begin("guard.checkpoint", job, parent)
	defer t.end(id)
	sys := g.r.sys
	t.do("md.clone", job, id, func(int) { g.snap = sys.Clone() })
	g.checkpoints++
	dir := g.cfg.CheckpointDir
	if dir == "" {
		return nil
	}
	f, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return err
	}
	cw := &countingWriter{w: f}
	t.do("md.checkpoint_encode", job, id, func(int) { err = md.WriteCheckpoint(cw, sys) })
	g.ckptBytes += cw.n
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, fmt.Sprintf("ckpt-%09d.mdcp", sys.Steps)))
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return fmt.Errorf("perfbench: checkpoint: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return pruneCheckpoints(dir, g.cfg.KeepCheckpoints)
}

// pruneCheckpoints keeps the newest keep ckpt-*.mdcp files in dir.
func pruneCheckpoints(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var steps []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".mdcp") {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".mdcp")); err == nil {
			steps = append(steps, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	for _, s := range steps[min(keep, len(steps)):] {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt-%09d.mdcp", s))); err != nil {
			return err
		}
	}
	return nil
}

type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// halfShell lists 13 of the 26 neighbour-cell offsets so that every
// unordered pair of adjacent cells appears once: the enumeration the
// linked-cell kernels use.
var halfShell = [13][3]int{
	{1, 0, 0},
	{1, 1, 0}, {0, 1, 0}, {-1, 1, 0},
	{1, 0, 1}, {0, 0, 1}, {-1, 0, 1},
	{1, 1, 1}, {0, 1, 1}, {-1, 1, 1},
	{1, -1, 1}, {0, -1, 1}, {-1, -1, 1},
}

// finalPairs counts, on the job's final positions, the pairs the force
// kernel examines per call and how many of them lie inside the cutoff.
// It runs outside every span.
func (r *shadowRunner) finalPairs() (examined, inside float64) {
	sys := r.sys
	p := sys.P
	rc2 := p.Cutoff * p.Cutoff
	in := func(i, j int) bool {
		d := md.MinImage(sys.Pos.At(i).Sub(sys.Pos.At(j)), p.Box)
		r2 := d.Norm2()
		return r2 < rc2 && r2 != 0
	}
	switch r.cfg.Method {
	case mdrun.Direct:
		for i := 0; i < sys.N(); i++ {
			for j := i + 1; j < sys.N(); j++ {
				examined++
				if in(i, j) {
					inside++
				}
			}
		}
	case mdrun.Pairlist:
		for i := 0; i < sys.N(); i++ {
			for _, j := range r.nl.Neighbors(i) {
				examined++
				if in(i, int(j)) {
					inside++
				}
			}
		}
	case mdrun.CellGridF32:
		cl, err := md.NewCellList(r.mx.P.Box, r.mx.P.Cutoff)
		if err != nil {
			return 0, 0
		}
		cl.Build(r.mx.Pos)
		p32 := r.mx.P
		rc2f := p32.Cutoff * p32.Cutoff
		pos := r.mx.Pos
		d := cl.Dims()
		cell := func(x, y, z int) int { return (((x%d+d)%d)*d+(y%d+d)%d)*d + (z%d+d)%d }
		visit := func(i, j int32) {
			examined++
			v := md.MinImage(pos.At(int(i)).Sub(pos.At(int(j))), p32.Box)
			if r2 := v.Norm2(); r2 < rc2f && r2 != 0 {
				inside++
			}
		}
		for cx := 0; cx < d; cx++ {
			for cy := 0; cy < d; cy++ {
				for cz := 0; cz < d; cz++ {
					for i := cl.Head(cell(cx, cy, cz)); i >= 0; i = cl.Next(i) {
						for j := cl.Next(i); j >= 0; j = cl.Next(j) {
							visit(i, j)
						}
						for _, off := range halfShell {
							for j := cl.Head(cell(cx+off[0], cy+off[1], cz+off[2])); j >= 0; j = cl.Next(j) {
								visit(i, j)
							}
						}
					}
				}
			}
		}
		r.fs.pairs = examined * float64(r.fs.calls)
	}
	return examined, inside
}
