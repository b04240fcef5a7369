package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
)

// stdRun is the paper's state point for n atoms, with the cutoff
// reduced the way core.StandardWorkload reduces it for small boxes.
func stdRun(n int, seed uint64, method mdrun.ForceMethod) mdrun.Config {
	cutoff := float64(core.StdCutoff)
	if box := lattice.BoxLength(n, core.StdDensity); 2*cutoff > box {
		cutoff = box / 2 * 0.99
	}
	return mdrun.Config{
		Atoms: n, Density: core.StdDensity, Temperature: core.StdTemperature,
		Lattice: lattice.FCC, Seed: seed,
		Cutoff: cutoff, Dt: core.StdDt, Method: method, Thermostat: mdrun.NVE,
	}
}

// timed is one measured piece of work in seconds: as measured, and
// rescaled to the nominal host (see calibrator).
type timed struct{ raw, cal float64 }

func lapTimed(c *calibrator) timed {
	secs, scale := c.lap()
	return timed{secs, secs * scale}
}

func (t *timed) add(u timed) { t.raw, t.cal = t.raw+u.raw, t.cal+u.cal }

// jobTimes is one measured job: its construction, its run, and the
// constructions timed and discarded before it.
type jobTimes struct {
	setup, run timed
	extra      []timed
}

// Each compute job also times constructions it discards, so that
// setup_s and the submit latencies rest on enough samples for a stable
// p95: two beside each ~40 ms guard.New and each ~10 ms mdrun.New, a
// few per cent of a job's time either way.
const pairExtraSetups, directExtraSetups = 2, 2

// timeSetups times n calls of construct, closing each result untimed.
// The calibrator's piece must have started.
func timeSetups(cal *calibrator, n int, construct func() (closeFn func(), err error)) ([]timed, error) {
	var ts []timed
	for k := 0; k < n; k++ {
		closeFn, err := construct()
		if err != nil {
			return nil, err
		}
		ts = append(ts, lapTimed(cal))
		closeFn()
		cal.resume()
	}
	return ts, nil
}

// computeMetrics are the end-to-end metrics of a sequence of identical
// compute jobs of atoms×steps work each, with every time read through
// secs. Throughput is the run's total work over its total stepping
// time. A job's submit latency is the median of the constructions
// timed for it, so that one construction a neighbour's burst preempted
// does not stand for the job.
func computeMetrics(jobs []jobTimes, secs func(timed) float64, atoms, steps int) map[string]float64 {
	var setup, submit, lat []float64
	var run float64
	for _, j := range jobs {
		own := []float64{secs(j.setup)}
		for _, e := range j.extra {
			own = append(own, secs(e))
		}
		setup = append(setup, own...)
		submit = append(submit, median(own))
		lat = append(lat, (secs(j.setup)+secs(j.run))*1e3)
		run += secs(j.run)
	}
	return map[string]float64{
		"setup_s":               median(setup),
		"atom_steps_per_s":      float64(len(jobs)*atoms*steps) / run,
		"jobs_per_s":            float64(len(jobs)) / (sum(lat) / 1e3),
		"job_latency_p50_ms":    percentile(lat, 50),
		"job_latency_p95_ms":    percentile(lat, 95),
		"submit_latency_p50_ms": percentile(submit, 50) * 1e3,
		"submit_latency_p95_ms": percentile(submit, 95) * 1e3,
	}
}

// reportCompute sets oc's end-to-end metrics from the run's jobs, and
// keeps the unscaled figures beside them for the result file.
func reportCompute(oc *outcome, cal *calibrator, jobs []jobTimes, atoms, steps int) {
	oc.metrics = computeMetrics(jobs, func(t timed) float64 { return t.cal }, atoms, steps)
	oc.raw = computeMetrics(jobs, func(t timed) float64 { return t.raw }, atoms, steps)
	oc.refNs = cal.samples
	var runs [][2]float64
	for _, j := range jobs {
		runs = append(runs, [2]float64{j.run.raw, j.run.cal})
	}
	oc.detail = map[string]any{"job_run_seconds_raw_cal": runs}
}

// digest fingerprints a system's full dynamic state bit for bit.
func digest(s *md.System[float64]) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, c := range []md.Coords[float64]{s.Pos, s.Vel, s.Acc} {
		for _, plane := range [][]float64{c.X, c.Y, c.Z} {
			for _, x := range plane {
				put(x)
			}
		}
	}
	put(s.PE)
	put(s.KE)
	put(float64(s.Steps))
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// loop runs job until the run's time is spent, and at least twice.
// Every job starts from a collected heap, so each is an independent
// sample and the peak RSS does not depend on where a collection
// happened to fall.
func loop(o *options, job func(i int) error) error {
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < o.duration; i++ {
		runtime.GC()
		if err := job(i); err != nil {
			return err
		}
	}
	return nil
}

// guardedConfig is guarded-pairlist's job: the serial f64 pairlist,
// NVE, under guard's default cadences with on-disk checkpoints.
func guardedConfig(o *options, dir string) guard.Config {
	run := stdRun(o.sz.pairAtoms, mix(o.seed, 1), mdrun.Pairlist)
	run.Faults = o.faults
	return guard.Config{Run: run, CheckpointDir: dir}
}

// guardedJob runs one guarded trajectory the way mdsim -guard, fleet
// and serve do, and checks it: no incidents, NVE drift inside guard's
// bound, and final forces bitwise equal to md.ComputeForces. The run
// is timed in pieces split at guard's OnSegment calls, one per 10-step
// segment, so that the host's speed is sampled beside every segment.
func guardedJob(o *options, oc *outcome, cal *calibrator, dir string) (jobTimes, [32]byte, error) {
	cal.start()
	extra, err := timeSetups(cal, pairExtraSetups, func() (func(), error) {
		d := dir + "-setup"
		sup, err := guard.New(guardedConfig(o, d))
		if err != nil {
			return nil, err
		}
		return func() { sup.Close(); _ = os.RemoveAll(d) }, nil
	})
	if err != nil {
		return jobTimes{}, [32]byte{}, err
	}
	jt := jobTimes{extra: extra}
	cfg := guardedConfig(o, dir)
	cfg.OnSegment = func(guard.Progress) { jt.run.add(lapTimed(cal)) }
	sup, err := guard.New(cfg)
	if err != nil {
		return jobTimes{}, [32]byte{}, err
	}
	defer sup.Close()
	jt.setup = lapTimed(cal)
	sum, rep, err := sup.RunContext(context.Background(), o.sz.pairSteps)
	jt.run.add(lapTimed(cal))
	oc.attempted++
	if rep != nil {
		oc.incidents += int(rep.Counts.Total())
	}
	sys := sup.System()
	switch {
	case err != nil:
		oc.fail("guarded run: %v", err)
	case rep.Counts.Total() > 0:
		oc.fail("guarded run: %d incidents: %s", rep.Counts.Total(), rep)
	case math.Abs(sum.FinalEnergy-sum.InitialEnergy)/math.Max(math.Abs(sum.InitialEnergy), 1) > 0.05:
		oc.fail("guarded run: NVE drift beyond 0.05 (E0 %v, E %v)", sum.InitialEnergy, sum.FinalEnergy)
	default:
		acc := md.MakeCoords[float64](sys.N())
		pe := md.ComputeForces(sys.P, sys.Pos, acc)
		if pe != sys.PE || !sameBits(acc, sys.Acc) {
			oc.fail("guarded run: final pairlist forces differ from md.ComputeForces")
		}
	}
	d := digest(sys)
	return jt, d, os.RemoveAll(dir)
}

func sameBits(a, b md.Coords[float64]) bool {
	for k, pa := range [][]float64{a.X, a.Y, a.Z} {
		pb := [][]float64{b.X, b.Y, b.Z}[k]
		for i := range pa {
			if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
				return false
			}
		}
	}
	return true
}

func runGuardedPairlist(o *options) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}}
	var jobs []jobTimes
	var lt *layerTrace
	if o.trace {
		lt = newLayerTrace()
		oc.tr = lt.t
	}
	cal := newCalibrator()
	err := loop(o, func(i int) error {
		jt, d, err := guardedJob(o, oc, cal, filepath.Join(o.work, fmt.Sprintf("job-%d", i)))
		if err != nil || lt == nil {
			jobs = append(jobs, jt)
			return err
		}
		// Traced twin: the same job through the layers' public functions.
		dir := filepath.Join(o.work, fmt.Sprintf("traced-%d", i))
		t0 := time.Now()
		root := lt.t.begin("job", i, -1)
		g, err := newShadowGuard(lt.t, i, root, guardedConfig(o, dir))
		if err == nil {
			err = g.run(o.sz.pairSteps, root)
		}
		lt.t.end(root)
		oc.attempted++
		if err != nil {
			oc.fail("traced guarded run: %v", err)
			return os.RemoveAll(dir)
		}
		lt.wall[0] += jt.setup.raw + jt.run.raw
		lt.wall[1] += time.Since(t0).Seconds()
		if digest(g.r.sys) != d {
			oc.fail("traced guarded run ended in a different state than guard.Supervisor")
		}
		lt.addGuard(g)
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	if lt != nil {
		lt.incidents = oc.incidents
		lt.fill(oc.metrics)
	} else {
		reportCompute(oc, cal, jobs, o.sz.pairAtoms, o.sz.pairSteps)
	}
	return oc, nil
}

// directJob is paper-direct's job: one mdrun.Runner.RunContext call on
// the direct O(N²) kernel, unguarded, from a fresh lattice.
func directJob(o *options, oc *outcome, cal *calibrator, ref *[32]byte) (jobTimes, [32]byte, error) {
	cfg := stdRun(o.sz.directAtoms, mix(o.seed, 2), mdrun.Direct)
	cfg.Faults = o.faults
	cal.start()
	extra, err := timeSetups(cal, directExtraSetups, func() (func(), error) {
		r, err := mdrun.New(cfg)
		if err != nil {
			return nil, err
		}
		return r.Close, nil
	})
	if err != nil {
		return jobTimes{}, [32]byte{}, err
	}
	r, err := mdrun.New(cfg)
	if err != nil {
		return jobTimes{}, [32]byte{}, err
	}
	defer r.Close()
	jt := jobTimes{setup: lapTimed(cal), extra: extra}
	sum, err := r.RunContext(context.Background(), o.sz.directSteps)
	jt.run = lapTimed(cal)
	oc.attempted++
	d := digest(r.System())
	switch {
	case err != nil:
		oc.fail("direct run: %v", err)
	case math.IsNaN(sum.FinalEnergy) || math.IsInf(sum.FinalEnergy, 0):
		oc.fail("direct run: non-finite final energy")
	case *ref == [32]byte{}:
		*ref = d
	case d != *ref:
		oc.fail("direct run: final-state digest differs from the first repeat")
	}
	return jt, d, nil
}

func runPaperDirect(o *options) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}}
	var jobs []jobTimes
	var ref [32]byte
	var lt *layerTrace
	if o.trace {
		lt = newLayerTrace()
		oc.tr = lt.t
	}
	cal := newCalibrator()
	err := loop(o, func(i int) error {
		jt, d, err := directJob(o, oc, cal, &ref)
		if err != nil || lt == nil {
			jobs = append(jobs, jt)
			return err
		}
		t0 := time.Now()
		root := lt.t.begin("job", i, -1)
		cfg := stdRun(o.sz.directAtoms, mix(o.seed, 2), mdrun.Direct)
		r, err := newShadowRunner(lt.t, i, root, cfg)
		if err == nil {
			err = r.run(o.sz.directSteps, root)
		}
		lt.t.end(root)
		oc.attempted++
		if err != nil {
			oc.fail("traced direct run: %v", err)
			return nil
		}
		lt.wall[0] += jt.setup.raw + jt.run.raw
		lt.wall[1] += time.Since(t0).Seconds()
		if digest(r.sys) != d {
			oc.fail("traced direct run ended in a different state than mdrun.Runner")
		}
		lt.addRunner(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if lt != nil {
		lt.incidents = oc.incidents
		lt.fill(oc.metrics)
	} else {
		reportCompute(oc, cal, jobs, o.sz.directAtoms, o.sz.directSteps)
	}
	return oc, nil
}
