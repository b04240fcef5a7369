// Package serve is the simulation-as-a-service layer: a durable,
// multi-tenant HTTP/JSON job API over the fleet scheduler. It is the
// ROADMAP's "millions of users" direction made concrete — the paper
// frames the accelerator as a shared batch resource fed by many
// independent jobs, and this package supplies the serving shape around
// that resource which the layers below deliberately left out:
//
//   - a validated run-spec vocabulary with hard resource caps (a
//     public endpoint must bound what one request can cost);
//   - per-tenant token-bucket quotas and fair-share admission on top
//     of the fleet's load shedding, so one hot tenant cannot starve
//     the rest — quota rejections carry Retry-After hints derived from
//     the fleet backoff policy;
//   - durability: accepted specs are persisted with the same
//     tmp+fsync+rename discipline as the guard checkpoint store, and a
//     restarted server re-admits incomplete jobs, resuming each from
//     its latest CRC-valid guard checkpoint instead of step 0;
//   - idempotency keys: resubmission with the same (tenant, key)
//     returns the original job ID and never double-runs, including
//     across a process death;
//   - graceful drain: stop admitting, let in-flight replicas finish or
//     reach a checkpoint, then exit — threaded through the existing
//     context-cancellation stack, so even the forced half of drain
//     stops replicas within one MD step.
package serve

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/mdrun"
)

// Resource caps a multi-tenant endpoint enforces per job. They bound
// the cost of a single accepted spec; the tenant quotas bound how many
// such specs a tenant can have in flight.
const (
	// MaxAtoms bounds the system size one job may request.
	MaxAtoms = 65536
	// MaxSteps bounds the trajectory length one job may request.
	MaxSteps = 1_000_000
)

// Spec is the run request a client submits: the standard LJ-argon
// workload vocabulary of the CLI tools, as JSON. Zero fields take the
// paper's standard values (internal/core), so the minimal useful spec
// is {"atoms": N, "steps": M}. Specs are normalized (defaults made
// explicit) before persisting, so the spec a restarted server replays
// is byte-for-byte the run that was admitted.
type Spec struct {
	Atoms int `json:"atoms"`
	Steps int `json:"steps"`

	Density     float64 `json:"density,omitempty"`
	Temperature float64 `json:"temperature,omitempty"`
	Cutoff      float64 `json:"cutoff,omitempty"`
	Dt          float64 `json:"dt,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	// Shifted selects the cutoff-shifted LJ potential (continuous at
	// r_c); the default is the paper's plain truncated form.
	Shifted bool `json:"shifted,omitempty"`

	// Method and Precision select the force kernel by its name in
	// mdrun's method table (see mdrun.ParseMethod; default direct at
	// f64), exactly as mdsim -method and -precision do.
	Method    string `json:"method,omitempty"`
	Precision string `json:"precision,omitempty"`
	// Workers sizes the host pool for the par* methods; 0 lets the
	// fleet assign the shared-budget fair share.
	Workers int     `json:"workers,omitempty"`
	Skin    float64 `json:"skin,omitempty"`

	// Thermostat is ""|rescale|berendsen. Langevin is excluded: its
	// noise stream position is not part of the checkpoint state, so a
	// resumed Langevin run would not continue the trajectory the
	// durability pin promises.
	Thermostat string `json:"thermostat,omitempty"`

	// CheckpointEvery is the durability cadence in steps (default 50):
	// how much work a crash can lose.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// KeepCheckpoints bounds the job's on-disk checkpoint retention
	// (guard's retain-last-M, default 3, max 64): long jobs must not
	// grow their ckpt/ directory without bound.
	KeepCheckpoints int `json:"keep_checkpoints,omitempty"`
}

// withDefaults returns the spec with every zero field made explicit.
func (sp Spec) withDefaults() Spec {
	if sp.Density == 0 {
		sp.Density = core.StdDensity
	}
	if sp.Temperature == 0 {
		sp.Temperature = core.StdTemperature
	}
	if sp.Cutoff == 0 {
		sp.Cutoff = core.StdCutoff
		// Match StandardWorkload's small-system cutoff reduction so tiny
		// test boxes stay valid.
		if box := math.Cbrt(float64(sp.Atoms) / sp.Density); 2*sp.Cutoff > box {
			sp.Cutoff = box / 2 * 0.99
		}
	}
	if sp.Dt == 0 {
		sp.Dt = core.StdDt
	}
	if sp.Seed == 0 {
		sp.Seed = core.StdSeed
	}
	if sp.Method == "" {
		sp.Method = mdrun.Direct.String()
	}
	if sp.Precision == "" {
		sp.Precision = "f64"
	}
	if sp.Skin == 0 {
		sp.Skin = 0.4
	}
	if sp.CheckpointEvery == 0 {
		sp.CheckpointEvery = 50
	}
	if sp.KeepCheckpoints == 0 {
		sp.KeepCheckpoints = 3
	}
	return sp
}

// Normalized returns the spec with every zero field made explicit —
// the exact record the server persists and replays. Exported so the
// chaos campaign can build its uninterrupted oracle from the same
// normalized spec an admitted job runs under.
func (sp Spec) Normalized() Spec { return sp.withDefaults() }

// Validate rejects specs that are malformed or exceed the per-job
// resource caps. It is called on the normalized spec.
func (sp Spec) Validate() error {
	if sp.Atoms < 2 || sp.Atoms > MaxAtoms {
		return fmt.Errorf("serve: atoms %d out of range [2, %d]", sp.Atoms, MaxAtoms)
	}
	if sp.Steps < 1 || sp.Steps > MaxSteps {
		return fmt.Errorf("serve: steps %d out of range [1, %d]", sp.Steps, MaxSteps)
	}
	if !(sp.Density > 0) || !(sp.Temperature > 0) || !(sp.Cutoff > 0) || !(sp.Dt > 0) {
		return fmt.Errorf("serve: density/temperature/cutoff/dt must be positive (got %g/%g/%g/%g)",
			sp.Density, sp.Temperature, sp.Cutoff, sp.Dt)
	}
	if !(sp.Skin > 0) {
		return fmt.Errorf("serve: skin %g must be positive", sp.Skin)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("serve: workers %d must be >= 0", sp.Workers)
	}
	if sp.CheckpointEvery < 1 {
		return fmt.Errorf("serve: checkpoint_every %d must be >= 1", sp.CheckpointEvery)
	}
	if sp.KeepCheckpoints < 1 || sp.KeepCheckpoints > 64 {
		return fmt.Errorf("serve: keep_checkpoints %d out of range [1, 64]", sp.KeepCheckpoints)
	}
	if _, err := mdrun.ParseThermostat(sp.Thermostat); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := mdrun.ParseMethod(sp.Method, sp.Precision); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// GuardConfig assembles the supervised-run configuration for this spec
// with checkpoints rooted at ckptDir — exported so the chaos campaign
// can run the oracle under exactly the admitted configuration. The
// caller wires OnSegment (and FS, for fault-injected runs).
func (sp Spec) GuardConfig(ckptDir string) (guard.Config, error) {
	method, err := mdrun.ParseMethod(sp.Method, sp.Precision)
	if err != nil {
		return guard.Config{}, fmt.Errorf("serve: %w", err)
	}
	thermostat, err := mdrun.ParseThermostat(sp.Thermostat)
	if err != nil {
		return guard.Config{}, fmt.Errorf("serve: %w", err)
	}
	cfg := mdrun.Config{
		Atoms: sp.Atoms, Density: sp.Density, Temperature: sp.Temperature,
		Lattice: lattice.FCC, Seed: sp.Seed,
		Cutoff: sp.Cutoff, Dt: sp.Dt, Shifted: sp.Shifted,
		Method: method, Workers: sp.Workers, PairlistSkin: sp.Skin,
		Thermostat: thermostat,
	}
	return guard.Config{
		Run:             cfg,
		CheckpointDir:   ckptDir,
		CheckpointEvery: sp.CheckpointEvery,
		KeepCheckpoints: sp.KeepCheckpoints,
	}, nil
}
