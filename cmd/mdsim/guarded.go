package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/mdrun"
)

// runGuarded executes the reference simulation under the resilient run
// supervisor: numerical-health watchdog, atomic checkpoint/rollback
// recovery, and the retry → halve-dt → serial escalation ladder.
func runGuarded(o runOpts, cfg mdrun.Config) error {
	inj, err := parseInject(o.inject)
	if err != nil {
		return err
	}
	cfg.Faults = inj
	sup, err := guard.New(guard.Config{
		Run:             cfg,
		CheckpointDir:   o.ckptDir,
		CheckpointEvery: o.ckptEvery,
		MaxRetries:      o.maxRetries,
	})
	if err != nil {
		return err
	}
	defer sup.Close()

	sum, rep, err := sup.Run(o.steps)
	for _, ev := range rep.Events {
		fmt.Printf("guard: step %-6d attempt %d  %-15v %s\n", ev.Step, ev.Attempt, ev.Kind, ev.Detail)
	}
	fmt.Printf("guard: %s\n", rep)
	if err != nil {
		return err
	}
	fmt.Printf("guarded MD: %d atoms, %d steps, method %v, workers %d\n",
		o.atoms, sum.Steps, rep.FinalMethod, cfg.Workers)
	fmt.Printf("energy:      initial %.6f  final %.6f\n", sum.InitialEnergy, sum.FinalEnergy)
	fmt.Printf("temperature: %.4f (target %.4f)\n", sum.MeanTemperature, core.StdTemperature)
	fmt.Printf("pressure:    %.4f\n", sum.Pressure)
	return nil
}

// parseInject translates comma-separated fault specs into an armed
// registry (nil for the empty spec). Each spec is kind@N:
//
//	nan-forces@N    poison the parallel force output from kernel call N on
//	worker-panic@N  panic inside the worker pool at task N
//	traj-error@N    fail the trajectory writer at write N
//	ckpt-error@N    fail the checkpoint writer at write N
func parseInject(spec string) (faults.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	reg := faults.NewRegistry(1)
	for _, part := range strings.Split(spec, ",") {
		kind, at, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("bad -inject spec %q (want kind@N)", part)
		}
		n, err := strconv.Atoi(at)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -inject call number %q (want a positive integer)", at)
		}
		switch kind {
		case "nan-forces":
			reg.Arm(faults.Fault{Site: faults.SiteParallelForces, Kind: faults.NaN,
				Trigger: faults.Trigger{FromCall: n}})
		case "worker-panic":
			reg.Arm(faults.Fault{Site: faults.SiteWorker, Kind: faults.Panic,
				Trigger: faults.Trigger{AtCall: n}})
		case "traj-error":
			reg.Arm(faults.Fault{Site: faults.SiteTrajectory, Kind: faults.Error,
				Trigger: faults.Trigger{AtCall: n}})
		case "ckpt-error":
			reg.Arm(faults.Fault{Site: faults.SiteCheckpoint, Kind: faults.Error,
				Trigger: faults.Trigger{AtCall: n}})
		default:
			return nil, fmt.Errorf("unknown -inject kind %q (want nan-forces|worker-panic|traj-error|ckpt-error)", kind)
		}
	}
	return reg, nil
}
