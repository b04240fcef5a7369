package mdrun

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/md"
	"repro/internal/parallel"
	"repro/internal/vec"
)

// ForceMethod selects the non-bonded force evaluation. Every name,
// precision and pool rule a method has lives in its row of the methods
// table below; the front ends (mdsim flags, serve specs, the guard's
// serial rung) read it through ParseMethod, String and Serial.
type ForceMethod int

const (
	// Direct is the paper's kernel: O(N²), distances on the fly.
	Direct ForceMethod = iota
	// Pairlist is the Verlet neighbor list (cutoff + skin).
	Pairlist
	// CellGrid is the linked-cell O(N) method.
	CellGrid
	// ParallelDirect is Direct sharded across Config.Workers host
	// threads (atom-range sharding over the full-loop layout).
	ParallelDirect
	// ParallelPairlist is Pairlist sharded by pair chunks with
	// per-worker accumulators.
	ParallelPairlist
	// ParallelCellGrid is CellGrid sharded by cell ranges.
	ParallelCellGrid
	// PairlistF32 is the mixed-precision Verlet list: pair geometry
	// and the LJ evaluation at float32 over a narrowed position
	// mirror, per-atom force and energy accumulation at float64. The
	// master state — integration, thermostat, checkpoints — stays
	// float64.
	PairlistF32
	// ParallelPairlistF32 is PairlistF32 sharded by atom ranges with
	// full-row gather; its output bytes are independent of Workers.
	ParallelPairlistF32
	// CellGridF32 is the mixed-precision linked-cell method.
	CellGridF32
)

// poolUse says when a method evaluates on the worker pool.
type poolUse int

const (
	poolNever  poolUse = iota
	poolMulti          // only with Workers > 1; one worker runs the kernel's serial form without a pool
	poolAlways         // at any worker count: the kernel's bytes do not depend on Workers
)

// methodRow is one ForceMethod's entry in the methods table.
type methodRow struct {
	name   string // spec/flag name, shared by both precisions
	prec   string // "f64" or "f32"
	kernel func(*Runner) (kernel, error)
	pool   poolUse
	serial ForceMethod // the guard's serial rung keeps the precision
}

var methods = [...]methodRow{
	Direct:              {"direct", "f64", (*Runner).directKernel, poolNever, Direct},
	Pairlist:            {"pairlist", "f64", (*Runner).pairlistKernel, poolNever, Pairlist},
	CellGrid:            {"cellgrid", "f64", (*Runner).cellKernel, poolNever, CellGrid},
	ParallelDirect:      {"pardirect", "f64", (*Runner).fullDirectKernel, poolMulti, Direct},
	ParallelPairlist:    {"parpairlist", "f64", (*Runner).pairlistKernel, poolMulti, Pairlist},
	ParallelCellGrid:    {"parcellgrid", "f64", (*Runner).cellKernel, poolMulti, CellGrid},
	PairlistF32:         {"pairlist", "f32", (*Runner).pairlistF32Kernel, poolNever, PairlistF32},
	ParallelPairlistF32: {"parpairlist", "f32", (*Runner).pairlistF32Kernel, poolAlways, PairlistF32},
	CellGridF32:         {"cellgrid", "f32", (*Runner).cellF32Kernel, poolNever, CellGridF32},
}

func (f ForceMethod) row() (methodRow, bool) {
	if f < 0 || int(f) >= len(methods) {
		return methodRow{}, false
	}
	return methods[f], true
}

// String implements fmt.Stringer: the spec name, suffixed "-f32" for
// the mixed-precision methods.
func (f ForceMethod) String() string {
	m, ok := f.row()
	switch {
	case !ok:
		return fmt.Sprintf("ForceMethod(%d)", int(f))
	case m.prec == "f64":
		return m.name
	default:
		return m.name + "-" + m.prec
	}
}

// Serial returns the method the guard's last escalation rung falls
// back to: the unsharded kernel at the same precision. Serial methods
// map to themselves.
func (f ForceMethod) Serial() ForceMethod {
	if m, ok := f.row(); ok {
		return m.serial
	}
	return f
}

// MethodNames lists the method names available at a precision ("" is
// f64), separated by '|', for flag help and error messages.
func MethodNames(precision string) string {
	if precision == "" {
		precision = "f64"
	}
	var names []string
	for _, m := range methods {
		if m.prec == precision {
			names = append(names, m.name)
		}
	}
	return strings.Join(names, "|")
}

// ParseMethod maps a spec/flag method name and precision to a
// ForceMethod. An empty method is direct and an empty precision f64.
func ParseMethod(method, precision string) (ForceMethod, error) {
	if method == "" {
		method = methods[Direct].name
	}
	if precision == "" {
		precision = "f64"
	}
	if precision != "f64" && precision != "f32" {
		return 0, fmt.Errorf("precision %q: want f64|f32", precision)
	}
	for f, m := range methods {
		if m.name == method && m.prec == precision {
			return ForceMethod(f), nil
		}
	}
	if precision == "f32" {
		return 0, fmt.Errorf("precision f32 supports method %s, got %q", MethodNames("f32"), method)
	}
	return 0, fmt.Errorf("unknown method %q (want %s)", method, MethodNames("f64"))
}

// ThermostatKind selects temperature control.
type ThermostatKind int

const (
	// NVE runs without a thermostat (constant energy).
	NVE ThermostatKind = iota
	// Rescale hard-rescales to the target every RescaleInterval steps.
	Rescale
	// Berendsen couples weakly with time constant Tau.
	Berendsen
	// Langevin couples stochastically with friction Gamma (canonical
	// sampling; noise stream seeded from Config.Seed+1).
	Langevin
)

var thermostatNames = [...]string{NVE: "nve", Rescale: "rescale", Berendsen: "berendsen", Langevin: "langevin"}

// String implements fmt.Stringer.
func (t ThermostatKind) String() string {
	if t < 0 || int(t) >= len(thermostatNames) {
		return fmt.Sprintf("ThermostatKind(%d)", int(t))
	}
	return thermostatNames[t]
}

// ParseThermostat maps a spec/flag thermostat name to its kind: the
// empty name is NVE, and rescale and berendsen name themselves.
// Langevin has no name here: its noise stream is not part of a
// checkpoint, so the checkpointing front ends could not resume it.
func ParseThermostat(name string) (ThermostatKind, error) {
	switch name {
	case "":
		return NVE, nil
	case Rescale.String():
		return Rescale, nil
	case Berendsen.String():
		return Berendsen, nil
	}
	return 0, fmt.Errorf("unknown thermostat %q (want rescale|berendsen)", name)
}

// kernel is one force algorithm wired at one precision over the
// runner's system.
type kernel struct {
	serial func() float64
	// pool evaluates on the worker pool; nil for kernels without one.
	pool func(*parallel.Engine[float64]) (float64, error)
	// pre runs before every evaluation (mirror refresh, shared list
	// build); nil when there is nothing to do.
	pre func() error
}

func (r *Runner) directKernel() (kernel, error) {
	sys := r.sys
	return kernel{serial: func() float64 { return md.ComputeForces(sys.P, sys.Pos, sys.Acc) }}, nil
}

// fullDirectKernel is the direct kernel over the full-loop layout the
// engine shards; its serial form is therefore ComputeForcesFull, not
// Direct's half loop.
func (r *Runner) fullDirectKernel() (kernel, error) {
	sys := r.sys
	return kernel{
		serial: func() float64 { return md.ComputeForcesFull(sys.P, sys.Pos, sys.Acc) },
		pool: func(e *parallel.Engine[float64]) (float64, error) {
			return e.TryForcesDirect(sys.P, sys.Pos, sys.Acc)
		},
	}, nil
}

func (r *Runner) pairlistKernel() (kernel, error) {
	sys := r.sys
	nl, err := md.NewNeighborList[float64](r.cfg.PairlistSkin)
	if err != nil {
		return kernel{}, err
	}
	return kernel{
		serial: func() float64 { return nl.Forces(sys.P, sys.Pos, sys.Acc) },
		pool: func(e *parallel.Engine[float64]) (float64, error) {
			return e.TryForcesPairlist(nl, sys.P, sys.Pos, sys.Acc)
		},
		pre: r.sharedBuild(func(ctx context.Context, be *parallel.Engine[float64]) error {
			if nl.Stale(sys.P, sys.Pos) {
				return be.BuildPairlist(ctx, nl, sys.P, sys.Pos)
			}
			return nil
		}),
	}, nil
}

func (r *Runner) cellKernel() (kernel, error) {
	sys := r.sys
	cl, err := md.NewCellList(sys.P.Box, sys.P.Cutoff)
	if err != nil {
		return kernel{}, err
	}
	return kernel{
		serial: func() float64 { return cl.Forces(sys.P, sys.Pos, sys.Acc) },
		pool: func(e *parallel.Engine[float64]) (float64, error) {
			return e.TryForcesCell(cl, sys.P, sys.Pos, sys.Acc)
		},
	}, nil
}

// pairlistF32Kernel is the mixed-precision list. NewMirror32 validates
// the narrowed parameters, so a box/cutoff pair that does not survive
// rounding to float32 fails here instead of mid-run.
func (r *Runner) pairlistF32Kernel() (kernel, error) {
	sys := r.sys
	mx, err := md.NewMirror32(sys.P)
	if err != nil {
		return kernel{}, err
	}
	nl, err := md.NewNeighborList[float32](vec.Narrow[float32](r.cfg.PairlistSkin))
	if err != nil {
		return kernel{}, err
	}
	build := r.sharedBuild(func(ctx context.Context, be *parallel.Engine[float64]) error {
		if nl.Stale(mx.P, mx.Pos) {
			return be.BuildPairlistF32(ctx, nl, mx.P, mx.Pos)
		}
		return nil
	})
	return kernel{
		serial: func() float64 { return md.ForcesPairlistMixed(nl, mx.P, mx.Pos, sys.Acc) },
		pool: func(e *parallel.Engine[float64]) (float64, error) {
			return e.TryForcesPairlistF32(nl, mx.P, mx.Pos, sys.Acc)
		},
		pre: refreshed(mx, sys, build),
	}, nil
}

func (r *Runner) cellF32Kernel() (kernel, error) {
	sys := r.sys
	mx, err := md.NewMirror32(sys.P)
	if err != nil {
		return kernel{}, err
	}
	cl, err := md.NewCellList(mx.P.Box, mx.P.Cutoff)
	if err != nil {
		return kernel{}, err
	}
	return kernel{
		serial: func() float64 { return md.ForcesCellMixed(cl, mx.P, mx.Pos, sys.Acc) },
		pre:    refreshed(mx, sys, nil),
	}, nil
}

// refreshed returns a hook that narrows the master positions into the
// f32 mirror, then runs next (if any).
func refreshed(mx *md.Mirror32, sys *md.System[float64], next func() error) func() error {
	return func() error {
		mx.RefreshSystem(sys)
		if next != nil {
			return next()
		}
		return nil
	}
}

// sharedBuild returns a pre-forces hook that keeps a neighbor list
// fresh through the shared Config.BuildEngine, or nil when no shared
// engine is configured (the force path then rebuilds on its own). The
// hook passes the current Run's context, so a cancelled replica
// abandons its build (list left stale-but-consistent) without
// disturbing other runners on the same pool.
func (r *Runner) sharedBuild(build func(context.Context, *parallel.Engine[float64]) error) func() error {
	be := r.cfg.BuildEngine
	if be == nil {
		return nil
	}
	return func() error { return build(r.runCtx, be) }
}

// buildForces wires the selected non-bonded method on the
// error-returning kernel path (serial kernels cannot fail; parallel
// kernels surface worker faults as errors).
func (r *Runner) buildForces() (func() (float64, error), error) {
	m, ok := r.cfg.Method.row()
	if !ok {
		return nil, fmt.Errorf("mdrun: unknown force method %d", int(r.cfg.Method))
	}
	k, err := m.kernel(r)
	if err != nil {
		return nil, err
	}
	eval := func() (float64, error) { return k.serial(), nil }
	if m.pool == poolAlways || (m.pool == poolMulti && r.cfg.Workers > 1) {
		e := parallel.New[float64](r.cfg.Workers)
		e.SetInjector(r.cfg.Faults)
		r.engine = e
		eval = func() (float64, error) { return k.pool(e) }
	}
	if k.pre == nil {
		return eval, nil
	}
	return func() (float64, error) {
		if err := k.pre(); err != nil {
			return 0, err
		}
		return eval()
	}, nil
}
