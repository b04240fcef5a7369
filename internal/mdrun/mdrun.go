// Package mdrun composes the MD building blocks into the kind of
// simulation front end the paper's future plans point at ("full-scale
// bio-molecular simulation frameworks"): one Config selects the force
// method (the paper's direct O(N²) kernel, the Verlet pairlist, or the
// linked-cell grid), an optional bonded topology, an optional
// thermostat, trajectory output, and on-line observables (temperature
// averages, RDF, MSD, pressure); one Run produces a Summary.
//
// All force methods integrate the identical physics (pinned by tests),
// so switching between them is purely a performance decision — the same
// property the device models rely on.
package mdrun

import (
	"context"
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/parallel"
)

// Config describes a full simulation.
type Config struct {
	// System.
	Atoms       int
	Density     float64
	Temperature float64
	Lattice     lattice.Kind
	Seed        uint64

	// Numerics.
	Cutoff  float64
	Dt      float64
	Shifted bool // shift the LJ potential to zero at the cutoff

	// Forces.
	Method       ForceMethod
	PairlistSkin float64 // used by Pairlist (default 0.4)
	// Workers sizes the host worker pool for the Parallel* methods:
	// 0 means one per CPU, negative clamps to 1, huge counts clamp to
	// parallel.MaxWorkers. Workers=1 runs without a pool, on a serial
	// kernel: ParallelDirect on ComputeForcesFull (the full-loop layout
	// the engine shards, not Direct's half loop), ParallelPairlist on
	// Pairlist's kernel, and ParallelCellGrid on CellGrid's kernel,
	// whose bytes differ from the engine's one-worker cell kernel.
	// ParallelPairlistF32 always runs on the pool: its gather kernel
	// produces the same bytes for every worker count. Ignored by the
	// serial methods.
	Workers int
	// BuildEngine, when non-nil, is a shared worker pool used for
	// neighbor-list builds by the Pairlist, ParallelPairlist,
	// PairlistF32, and ParallelPairlistF32 methods
	// (the fleet scheduler hands every replica the same engine, so
	// replicas share one build pool instead of spawning their own).
	// The engine is borrowed: Runner.Close does not close it, and the
	// parallel build is byte-identical to the serial one for any worker
	// count, so sharing never perturbs the physics. Nil (the default)
	// builds on the method's own path.
	BuildEngine *parallel.Engine[float64]

	// Optional bonded topology (nil for the pure LJ fluid).
	Topology *md.Topology

	// Temperature control.
	Thermostat      ThermostatKind
	RescaleInterval int     // Rescale: steps between kicks (default 10)
	Tau             float64 // Berendsen: coupling constant (default 25*Dt)
	Gamma           float64 // Langevin: friction (default 5.0)

	// Trajectory output (nil to disable).
	Trajectory      io.Writer
	TrajectoryEvery int // frames every N steps (default 10)

	// Observables.
	SampleRDF   bool
	RDFBins     int // default 50
	SampleEvery int // observable sampling stride (default 10)

	// Faults optionally injects failures for resilience testing: the
	// trajectory writer is wrapped at faults.SiteTrajectory, every
	// force evaluation consults faults.SiteForces, and the parallel
	// engine (if any) is armed at faults.SiteWorker and
	// faults.SiteParallelForces. Nil (the default) costs one nil check
	// per step.
	Faults faults.Injector
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.PairlistSkin == 0 {
		c.PairlistSkin = 0.4
	}
	c.Workers = parallel.ClampWorkers(c.Workers)
	if c.RescaleInterval == 0 {
		c.RescaleInterval = 10
	}
	if c.Tau == 0 {
		c.Tau = 25 * c.Dt
	}
	if c.Gamma == 0 {
		c.Gamma = 5.0
	}
	if c.TrajectoryEvery == 0 {
		c.TrajectoryEvery = 10
	}
	if c.RDFBins == 0 {
		c.RDFBins = 50
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10
	}
	return c
}

// Summary reports a completed run.
type Summary struct {
	Steps int

	InitialEnergy float64
	FinalEnergy   float64
	// MeanTemperature averages the sampled instantaneous temperatures.
	MeanTemperature float64
	// Pressure is the final-configuration virial pressure.
	Pressure float64
	// MSD is the mean-square displacement over the whole run.
	MSD float64
	// RDF results (nil unless Config.SampleRDF).
	RDFCenters, RDF []float64
	// FramesWritten counts trajectory frames.
	FramesWritten int
}

// Runner holds a configured simulation.
type Runner struct {
	cfg Config
	sys *md.System[float64]

	forces func() (float64, error)
	bonded *md.Topology
	therm  md.Thermostat[float64]
	traj   *md.XYZWriter
	rdf    *md.RDF
	msd    *md.MSD
	engine *parallel.Engine[float64] // non-nil for the Parallel* methods with Workers > 1

	// runCtx is the context of the Run in progress; the shared-engine
	// build path reads it so a cancelled replica abandons its build
	// without cancelling siblings on the same pool.
	runCtx context.Context
}

// New builds and validates a runner; forces are evaluated once so the
// initial energy is meaningful.
func New(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	st, err := lattice.Generate(lattice.Config{
		N: cfg.Atoms, Density: cfg.Density, Temperature: cfg.Temperature,
		Kind: cfg.Lattice, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	p := md.Params[float64]{Box: st.Box, Cutoff: cfg.Cutoff, Dt: cfg.Dt, Shifted: cfg.Shifted}
	sys, err := md.NewSystem(st, p)
	if err != nil {
		return nil, err
	}
	return assemble(cfg, sys)
}

// NewFromSystem builds a runner that continues from an existing system
// state — a restored checkpoint, or a state handed over from another
// runner (the guard supervisor's rollback/escalation path). The
// Config's lattice-shape fields (Atoms, Density, Lattice, Seed) are
// ignored; the box comes from sys, while Cutoff, Dt, and Shifted are
// taken from cfg when set (Dt overriding is what lets the supervisor
// halve the time step on retry). The system is adopted, not copied,
// and its stored accelerations are kept so a same-method resume stays
// bit-exact with an uninterrupted run.
func NewFromSystem(sys *md.System[float64], cfg Config) (*Runner, error) {
	if sys == nil || sys.N() == 0 {
		return nil, fmt.Errorf("mdrun: NewFromSystem needs a non-empty system")
	}
	cfg = cfg.withDefaults()
	if cfg.Cutoff > 0 {
		sys.P.Cutoff = cfg.Cutoff
	}
	if cfg.Dt > 0 {
		sys.P.Dt = cfg.Dt
	}
	sys.P.Shifted = cfg.Shifted
	if err := sys.P.Validate(); err != nil {
		return nil, err
	}
	return assemble(cfg, sys)
}

// assemble wires forces, thermostat, trajectory, and observables
// around an existing system.
func assemble(cfg Config, sys *md.System[float64]) (*Runner, error) {
	r := &Runner{cfg: cfg, sys: sys, bonded: cfg.Topology, runCtx: context.Background()}

	if r.bonded != nil {
		if err := r.bonded.Validate(sys.N()); err != nil {
			return nil, err
		}
	}

	nonbonded, err := r.buildForces()
	if err != nil {
		return nil, err
	}
	r.forces = func() (float64, error) {
		pe, err := nonbonded()
		if err != nil {
			return 0, err
		}
		if r.bonded != nil {
			bpe, err := md.BondedForces(r.bonded, sys.P.Box, sys.Pos, sys.Acc)
			if err != nil {
				// Bonded failures (coincident atoms) indicate a blown-up
				// trajectory; surface as a step error.
				return 0, err
			}
			pe += bpe
		}
		if f := faults.Fire(cfg.Faults, faults.SiteForces); f != nil {
			faults.CorruptPlane(f.Kind, sys.Acc.X)
		}
		return pe, nil
	}

	switch cfg.Thermostat {
	case NVE:
	case Rescale:
		r.therm, err = md.NewRescaleThermostat(cfg.Temperature, cfg.RescaleInterval)
	case Berendsen:
		r.therm, err = md.NewBerendsenThermostat(cfg.Temperature, cfg.Dt, cfg.Tau)
	case Langevin:
		r.therm, err = md.NewLangevinThermostat(cfg.Temperature, cfg.Dt, cfg.Gamma, cfg.Seed+1)
	default:
		err = fmt.Errorf("mdrun: unknown thermostat %d", int(cfg.Thermostat))
	}
	if err != nil {
		return nil, err
	}

	if cfg.Trajectory != nil {
		r.traj = md.NewXYZWriter(faults.NewWriter(cfg.Trajectory, cfg.Faults, faults.SiteTrajectory), "Ar")
	}
	if cfg.SampleRDF {
		rMax := sys.P.Cutoff
		if rMax > sys.P.Box/2 {
			rMax = sys.P.Box / 2 * 0.99
		}
		r.rdf, err = md.NewRDF(sys.P.Box, rMax, cfg.RDFBins)
		if err != nil {
			return nil, err
		}
	}
	r.msd = md.NewMSD(sys.P.Box, sys.Pos)
	return r, nil
}

// Close releases the parallel worker pool, if any. The Runner must not
// be used after Close. Close is idempotent, safe on serial runners,
// safe to call concurrently from several goroutines, and safe after a
// failed Run — the pool drains even when the last evaluation errored.
func (r *Runner) Close() {
	if r.engine != nil {
		r.engine.Close()
	}
}

// System exposes the live state (read-mostly; used by tests and tools).
func (r *Runner) System() *md.System[float64] { return r.sys }

// Run advances the simulation the given number of steps and returns
// the summary. Failures — a worker fault, a bonded blow-up, a
// trajectory-write error — return an error together with a partial
// Summary whose Steps field reports how many steps completed before
// the failure (the other summary fields describe the state at that
// point); there is no panic path. After a failed Run the system state
// may be mid-step; continue only from a restored checkpoint (see
// internal/guard).
func (r *Runner) Run(steps int) (*Summary, error) {
	return r.RunContext(context.Background(), steps)
}

// RunContext is Run bounded by a context: cancellation (or deadline
// expiry) is checked at every step boundary and inside the parallel
// worker pool, so a cancelled run stops within one MD step — with a
// partial Summary and an error wrapping ctx.Err() — rather than at run
// end. Cancellation caught at a step boundary leaves the system at
// whole-step state; cancellation that lands mid-force-evaluation is a
// failed step like any other (state may be mid-step; the guard
// supervisor rolls back before reuse).
func (r *Runner) RunContext(ctx context.Context, steps int) (*Summary, error) {
	if steps < 0 {
		return nil, fmt.Errorf("mdrun: steps must be non-negative, got %d", steps)
	}
	if r.engine != nil {
		r.engine.SetContext(ctx)
	}
	r.runCtx = ctx

	sys := r.sys
	sum := &Summary{Steps: steps, InitialEnergy: sys.TotalEnergy()}
	var tempSum float64
	tempSamples := 0
	// fail reports a failure after completed whole steps.
	fail := func(completed int, err error) (*Summary, error) {
		sum.Steps = completed
		sum.FinalEnergy = sys.TotalEnergy()
		if tempSamples > 0 {
			sum.MeanTemperature = tempSum / float64(tempSamples)
		}
		if r.traj != nil {
			sum.FramesWritten = r.traj.Frames()
		}
		return sum, fmt.Errorf("mdrun: %w", err)
	}
	for s := 1; s <= steps; s++ {
		if cerr := ctx.Err(); cerr != nil {
			return fail(s-1, fmt.Errorf("cancelled before step %d: %w", sys.Steps+1, cerr))
		}
		if err := sys.StepWithE(r.forces); err != nil {
			return fail(s-1, fmt.Errorf("step %d: %w", sys.Steps+1, err))
		}
		if r.therm != nil {
			r.therm.Apply(sys.Vel, sys.Temperature())
			sys.KE = md.KineticEnergy(sys.Vel)
		}
		if err := r.msd.Track(sys.Pos); err != nil {
			return fail(s, err)
		}
		if s%r.cfg.SampleEvery == 0 {
			tempSum += sys.Temperature()
			tempSamples++
			if r.rdf != nil {
				r.rdf.Accumulate(sys.Pos)
			}
		}
		if r.traj != nil && s%r.cfg.TrajectoryEvery == 0 {
			comment := fmt.Sprintf("step %d PE %.6f KE %.6f", sys.Steps, sys.PE, sys.KE)
			if err := r.traj.WriteFrame(comment, sys.Pos); err != nil {
				return fail(s, fmt.Errorf("trajectory: %w", err))
			}
		}
	}
	if r.traj != nil {
		if err := r.traj.Flush(); err != nil {
			return fail(steps, fmt.Errorf("trajectory: %w", err))
		}
		sum.FramesWritten = r.traj.Frames()
	}
	sum.FinalEnergy = sys.TotalEnergy()
	if tempSamples > 0 {
		sum.MeanTemperature = tempSum / float64(tempSamples)
	}
	sum.Pressure = md.Pressure(sys.P, sys.Pos, sys.Temperature())
	sum.MSD = r.msd.Value()
	if r.rdf != nil {
		sum.RDFCenters, sum.RDF = r.rdf.Result()
	}
	return sum, nil
}
