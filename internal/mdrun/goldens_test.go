// goldens_test.go pins mdrun's force-method wiring bitwise: every
// ForceMethod × Workers ∈ {1, 2} × BuildEngine ∈ {nil, shared} ×
// thermostat ∈ {NVE, rescale} is stepped through mdrun.New and
// Runner.Run, every step's full state is folded into a SHA-256 in the
// same canonical atom-major byte order as internal/md's SoA harness,
// and the digests are compared against testdata/runner_goldens.json.
// The SoA goldens drive the kernels directly; this file pins what
// Config selects, so a change to the method table, the Workers==1
// routing or the shared-build hook that moves any trajectory bit fails
// here.
//
// Regenerate goldens (only legitimate when a trajectory is supposed
// to change):
//
//	go test ./internal/mdrun -run TestRunnerMethodGoldens -update-runner-goldens
package mdrun

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/parallel"
)

var updateRunnerGoldens = flag.Bool("update-runner-goldens", false,
	"rewrite testdata/runner_goldens.json from the current build")

const (
	runnerGoldenPath  = "testdata/runner_goldens.json"
	runnerGoldenSteps = 30
)

// allMethods lists every ForceMethod constant.
var allMethods = []ForceMethod{
	Direct, Pairlist, CellGrid,
	ParallelDirect, ParallelPairlist, ParallelCellGrid,
	PairlistF32, ParallelPairlistF32, CellGridF32,
}

func runnerGoldenConfig(m ForceMethod, workers int, build *parallel.Engine[float64], th ThermostatKind) Config {
	return Config{
		Atoms: 500, Density: 0.8, Temperature: 1.2,
		Lattice: lattice.FCC, Seed: 11,
		Cutoff: 2.5, Dt: 0.004,
		Method: m, Workers: workers, BuildEngine: build, Thermostat: th,
	}
}

// appendRunnerState serializes positions, velocities and accelerations
// atom-major as float64 LE bits, then PE and KE.
func appendRunnerState(buf []byte, sys *md.System[float64]) []byte {
	f := func(buf []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, c := range []md.Coords[float64]{sys.Pos, sys.Vel, sys.Acc} {
		for i := 0; i < sys.N(); i++ {
			v := c.At(i)
			buf = f(f(f(buf, v.X), v.Y), v.Z)
		}
	}
	return f(f(buf, sys.PE), sys.KE)
}

// runnerDigest steps one configuration a step at a time and hashes the
// initial state plus every step's state.
func runnerDigest(t *testing.T, cfg Config) string {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sys := r.System()
	h := sha256.New()
	buf := make([]byte, 0, sys.N()*9*8+16)
	h.Write(appendRunnerState(buf, sys))
	for s := 0; s < runnerGoldenSteps; s++ {
		if _, err := r.Run(1); err != nil {
			t.Fatal(err)
		}
		h.Write(appendRunnerState(buf[:0], sys))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunnerMethodGoldens is the wiring gate: each configuration must
// reproduce its recorded trajectory byte for byte.
func TestRunnerMethodGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runner trajectory sweep is not -short")
	}
	shared := parallel.New[float64](2)
	defer shared.Close()
	digests := make(map[string]string)
	for _, m := range allMethods {
		for _, w := range []int{1, 2} {
			for _, b := range []struct {
				name   string
				engine *parallel.Engine[float64]
			}{{"own", nil}, {"shared", shared}} {
				for _, th := range []ThermostatKind{NVE, Rescale} {
					key := fmt.Sprintf("%v/w%d/%s/%v", m, w, b.name, th)
					cfg := runnerGoldenConfig(m, w, b.engine, th)
					t.Run(key, func(t *testing.T) {
						digests[key] = runnerDigest(t, cfg)
					})
				}
			}
		}
	}

	if *updateRunnerGoldens {
		data, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(runnerGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runnerGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(digests), runnerGoldenPath)
		return
	}

	data, err := os.ReadFile(runnerGoldenPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-runner-goldens): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok := digests[k]
		if !ok {
			t.Errorf("%s: golden has no matching case", k)
			continue
		}
		if got != want[k] {
			t.Errorf("%s: trajectory digest %s, golden %s", k, got, want[k])
		}
	}
	if len(digests) != len(want) {
		t.Errorf("ran %d cases, golden has %d", len(digests), len(want))
	}
}
