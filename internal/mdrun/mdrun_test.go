package mdrun

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/lattice"
	"repro/internal/md"
)

func baseConfig() Config {
	return Config{
		Atoms:       256,
		Density:     0.8442,
		Temperature: 0.728,
		Lattice:     lattice.FCC,
		Seed:        101,
		Cutoff:      2.5,
		Dt:          0.004,
		Shifted:     true,
	}
}

func TestNVEConservesEnergy(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	drift := math.Abs(sum.FinalEnergy-sum.InitialEnergy) / math.Abs(sum.InitialEnergy)
	if drift > 1e-3 {
		t.Fatalf("NVE drift %v", drift)
	}
}

func TestThermostatsHoldTemperature(t *testing.T) {
	for _, kind := range []ThermostatKind{Rescale, Berendsen, Langevin} {
		cfg := baseConfig()
		cfg.Thermostat = kind
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Equilibrate, then measure.
		if _, err := r.Run(150); err != nil {
			t.Fatal(err)
		}
		sum, err := r.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sum.MeanTemperature-cfg.Temperature) > 0.08 {
			t.Fatalf("%v: mean T = %v, want ~%v", kind, sum.MeanTemperature, cfg.Temperature)
		}
	}
}

func TestForceMethodsAgree(t *testing.T) {
	// The three force methods must produce the same trajectory. 864
	// atoms gives a box wide enough for the cell grid.
	run := func(m ForceMethod) *md.System[float64] {
		cfg := baseConfig()
		cfg.Atoms = 864
		cfg.Method = m
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(25); err != nil {
			t.Fatal(err)
		}
		return r.System()
	}
	ref := run(Direct)
	for _, m := range []ForceMethod{Pairlist, CellGrid} {
		got := run(m)
		for i := 0; i < ref.N(); i++ {
			if d := ref.Pos.At(i).Sub(got.Pos.At(i)).Norm(); d > 1e-8 {
				t.Fatalf("%v diverged from direct at atom %d by %v", m, i, d)
			}
		}
	}
}

func TestBondedTopologyIntegrates(t *testing.T) {
	cfg := baseConfig()
	cfg.Atoms = 108
	cfg.Topology = md.LinearChain(4, 60, 1.1) // bond the first four atoms
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	drift := math.Abs(sum.FinalEnergy-sum.InitialEnergy) / math.Abs(sum.InitialEnergy)
	if drift > 5e-3 {
		t.Fatalf("bonded NVE drift %v", drift)
	}
}

func TestBadTopologyRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.Topology = &md.Topology{Bonds: []md.Bond{{I: 0, J: 99999, K: 1, R0: 1}}}
	if _, err := New(cfg); err == nil {
		t.Fatal("out-of-range topology accepted")
	}
}

func TestTrajectoryWritten(t *testing.T) {
	var buf bytes.Buffer
	cfg := baseConfig()
	cfg.Atoms = 108 // smallest system whose box still fits the 2.5 cutoff
	cfg.Trajectory = &buf
	cfg.TrajectoryEvery = 5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FramesWritten != 4 {
		t.Fatalf("FramesWritten = %d, want 4", sum.FramesWritten)
	}
	frames, err := md.NewXYZReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 || len(frames[0].Pos) != 108 {
		t.Fatalf("trajectory malformed: %d frames", len(frames))
	}
	if !strings.Contains(frames[0].Comment, "step 5") {
		t.Fatalf("comment = %q", frames[0].Comment)
	}
}

func TestRDFSampling(t *testing.T) {
	cfg := baseConfig()
	cfg.SampleRDF = true
	cfg.SampleEvery = 5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.RDF) != cfg.withDefaults().RDFBins {
		t.Fatalf("RDF bins = %d", len(sum.RDF))
	}
	// Liquid structure: a first peak above 1.
	var peak float64
	for _, g := range sum.RDF {
		if g > peak {
			peak = g
		}
	}
	if peak < 1.5 {
		t.Fatalf("RDF peak = %v, want > 1.5", peak)
	}
}

func TestMSDGrows(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MSD <= 0 {
		t.Fatalf("MSD = %v", sum.MSD)
	}
}

// TestPressurePositiveAtLiquidDensity: the summary's pressure is
// finite and bitwise md.Pressure of the final state.
func TestPressurePositiveAtLiquidDensity(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(sum.Pressure) || math.IsInf(sum.Pressure, 0) {
		t.Fatalf("pressure = %v", sum.Pressure)
	}
	sys := r.System()
	if want := md.Pressure(sys.P, sys.Pos, sys.Temperature()); math.Float64bits(sum.Pressure) != math.Float64bits(want) {
		t.Fatalf("pressure = %v, md.Pressure = %v", sum.Pressure, want)
	}
}

// TestRunnerPressureMatchesOracle pins Runner.Pressure, and the
// Summary.Pressure RunContext reports, bitwise to md.Pressure for every
// serial method, below the 3-cell threshold (256 atoms, the O(N²)
// fallback) and above it (864 atoms, the cell path), shifted or not,
// with non-unit ε/σ, at several points along a run.
func TestRunnerPressureMatchesOracle(t *testing.T) {
	for _, m := range allMethods {
		if m.Serial() != m {
			continue
		}
		for _, atoms := range []int{256, 864} {
			if atoms < 864 && (m == CellGrid || m == CellGridF32) {
				continue // the cell kernels need a box of 3 cutoffs
			}
			for _, shifted := range []bool{false, true} {
				name := fmt.Sprintf("%v/n%d/shifted=%v", m, atoms, shifted)
				t.Run(name, func(t *testing.T) {
					checkRunnerPressure(t, m, atoms, shifted)
				})
			}
		}
	}
}

func checkRunnerPressure(t *testing.T, m ForceMethod, atoms int, shifted bool) {
	st, err := lattice.Generate(lattice.Config{
		N: atoms, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := md.NewSystem(st, md.Params[float64]{
		Box: st.Box, Cutoff: 2.5, Dt: 0.004, Epsilon: 1.3, Sigma: 0.95, Shifted: shifted,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewFromSystem(sys, Config{Method: m, Shifted: shifted, Temperature: 0.728})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	same := func(at string, got float64) {
		t.Helper()
		want := md.Pressure(sys.P, sys.Pos, sys.Temperature())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: pressure %v, md.Pressure %v", at, got, want)
		}
	}
	same("step 0", r.Pressure())
	for k := 0; k < 3; k++ {
		if _, err := r.Advance(context.Background(), 7); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("step %d", sys.Steps), r.Pressure())
	}
	sum, err := r.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	same("summary", sum.Pressure)
}

// TestAdvanceSkipsEndOfRunObservables: Advance steps exactly as
// RunContext does but leaves Pressure, MSD and RDF zero, which
// RunContext fills.
func TestAdvanceSkipsEndOfRunObservables(t *testing.T) {
	cfg := baseConfig()
	cfg.SampleRDF = true
	adv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := adv.Advance(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	r, err := run.RunContext(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pressure != 0 || a.MSD != 0 || a.RDF != nil || a.RDFCenters != nil {
		t.Fatalf("Advance filled end-of-run observables: %+v", a)
	}
	if r.Pressure == 0 || r.MSD <= 0 || len(r.RDF) != cfg.withDefaults().RDFBins {
		t.Fatalf("RunContext left end-of-run observables empty: %+v", r)
	}
	if a.Steps != r.Steps || a.InitialEnergy != r.InitialEnergy || a.FinalEnergy != r.FinalEnergy ||
		a.MeanTemperature != r.MeanTemperature || a.FramesWritten != r.FramesWritten {
		t.Fatalf("Advance summary %+v differs from RunContext's %+v", a, r)
	}
	as, rs := adv.System(), run.System()
	for i := 0; i < as.N(); i++ {
		if as.Pos.At(i) != rs.Pos.At(i) || as.Vel.At(i) != rs.Vel.At(i) || as.Acc.At(i) != rs.Acc.At(i) {
			t.Fatalf("Advance and RunContext states differ at atom %d", i)
		}
	}
}

func TestInvalidConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Atoms = 0 },
		func(c *Config) { c.Density = 0 },
		func(c *Config) { c.Cutoff = 0 },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Thermostat = ThermostatKind(99) },
		func(c *Config) { c.Method = ForceMethod(99) },
	}
	for i, mod := range cases {
		cfg := baseConfig()
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNegativeStepsRejected(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(-1); err == nil {
		t.Fatal("negative steps accepted")
	}
}

func TestZeroSteps(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.InitialEnergy != sum.FinalEnergy {
		t.Fatal("zero-step run changed energy")
	}
}

func TestStrings(t *testing.T) {
	if Direct.String() != "direct" || Pairlist.String() != "pairlist" || CellGrid.String() != "cellgrid" {
		t.Fatal("ForceMethod.String")
	}
	if NVE.String() != "nve" || Rescale.String() != "rescale" || Berendsen.String() != "berendsen" || Langevin.String() != "langevin" {
		t.Fatal("ThermostatKind.String")
	}
	if ForceMethod(42).String() == "" || ThermostatKind(42).String() == "" {
		t.Fatal("unknown stringers empty")
	}
}
