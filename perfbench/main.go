// Command perfbench is the end-to-end benchmark of the MD stack:
// lattice → md kernels → mdrun step loop → guard segments → fleet
// replicas → serve jobs. Each run measures one workload for a fixed
// time, checks the program's outputs, and prints one JSON result as
// its last line of standard output: the end-to-end metrics with
// --trace 0, or the per-layer split from a traced run with --trace 1.
//
//	perfbench --workload guarded-pairlist|paper-direct|serve-jobs|all \
//	    --seed N --seconds S --trace 0|1
//
// See README.md beside this file for the workloads, the metrics and
// what each layer metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/faults"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the MD engine sees, reported by
// every workload with --trace 0. A "job" is the unit the workload's
// client waits for: one guarded run, one Runner.RunContext call, or
// one served job. Every time in them is rescaled to the nominal host
// (see calibrator); the result file keeps the unscaled figures too.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"atom_steps_per_s", "atom-steps/s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p95_ms", "ms"},
	{"submit_latency_p50_ms", "ms"},
	{"submit_latency_p95_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run. Times and counts are per
// traced job; a layer a workload does not use reports 0.
var perLayer = []metricDef{
	{"lattice.generate_s", "s"},
	{"md.new_system_s", "s"},
	{"md.force_s", "s"},
	{"md.force_pairs", "count"},
	{"md.force_ns_per_pair", "ns"},
	{"md.pairs_in_cutoff_ratio", "ratio"},
	{"md.build_s", "s"},
	{"md.builds", "count"},
	{"md.steps_per_build", "steps"},
	{"md.integrate_s", "s"},
	{"md.pressure_s", "s"},
	{"md.pressure_calls", "count"},
	{"md.checkpoint_encode_s", "s"},
	{"md.checkpoint_bytes", "bytes"},
	{"md.clone_s", "s"},
	{"mdrun.run_calls", "count"},
	{"mdrun.observe_s", "s"},
	{"mdrun.self_s", "s"},
	{"guard.segment_ms_p50", "ms"},
	{"guard.segment_ms_p95", "ms"},
	{"guard.checkpoint_s", "s"},
	{"guard.checkpoints", "count"},
	{"guard.self_s", "s"},
	{"guard.incidents", "count"},
	{"parallel.build_s", "s"},
	{"parallel.build_speedup_vs_serial", "ratio"},
	{"fleet.replica_wall_ms_p50", "ms"},
	{"fleet.attempts_per_job", "count"},
	{"fleet.shed", "count"},
	{"serve.store_put_ms_p50", "ms"},
	{"serve.first_event_ms_p50", "ms"},
	{"serve.done_after_last_event_ms_p50", "ms"},
	{"serve.events_per_job", "count"},
	{"serve.disk_bytes_per_job", "bytes"},
	{"trace.jobs", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ratio", "ratio"},
	{"host.ref_ns_per_pair", "ns"},
}

var workloads = []string{"guarded-pairlist", "paper-direct", "serve-jobs"}

// sizes are the workload shapes; tests shrink them.
type sizes struct {
	pairAtoms, pairSteps     int // guarded-pairlist
	directAtoms, directSteps int // paper-direct
	serveAtoms, serveSteps   int // serve-jobs
	serveCkptEvery           int
}

var fullSize = sizes{
	pairAtoms: 4000, pairSteps: 100,
	directAtoms: 2048, directSteps: 25,
	serveAtoms: 256, serveSteps: 200, serveCkptEvery: 20,
}

type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	root     string // checkout root; the benchmark reads and writes only below it
	work     string // working directory for checkpoints and job stores
	out      string // result and span files
	sz       sizes
	faults   faults.Injector // armed only by the self-tests
	stdout   io.Writer       // where the host and result lines go
}

// outcome is what a workload run reports before formatting.
type outcome struct {
	attempted, failed int
	incidents         int // guard and fleet incidents the real runs reported
	metrics           map[string]float64
	raw               map[string]float64 // end-to-end metrics before calibration
	refNs             []float64          // the calibration samples, ns per pair
	detail            map[string]any     // per-piece timings for the result file
	tr                *tracer
	notes             []string // first few check failures, for stderr
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 5 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o := options{sz: fullSize, stdout: os.Stdout}
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "guarded-pairlist, paper-direct, serve-jobs, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&seconds, "seconds", 35, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer split")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench", "out"), "directory for result and span files")
	flag.Parse()
	if seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	o.duration, o.trace = time.Duration(seconds*float64(time.Second)), trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	var err error
	if o.root, err = os.Getwd(); err != nil {
		fatal(err)
	}
	for _, w := range names {
		o.workload = w
		if _, err := runOne(o); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runOne runs one workload, writes its result and spans under o.out,
// and prints the host line and the result line.
func runOne(o options) (*result, error) {
	run, ok := map[string]func(*options) (*outcome, error){
		"guarded-pairlist": runGuardedPairlist,
		"paper-direct":     runPaperDirect,
		"serve-jobs":       runServeJobs,
	}[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", o.workload, workloads)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Dir(o.out), "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work

	host := fingerprint(o.root)
	oc, err := run(&o)
	if err != nil {
		return nil, err
	}
	res, err := format(o, oc, host)
	if err != nil {
		return nil, err
	}
	for _, n := range oc.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	header := map[string]any{"workload": o.workload, "seed": o.seed, "seconds": o.duration.Seconds(), "trace": o.trace, "host": host}
	if oc.tr != nil {
		if err := oc.tr.write(filepath.Join(o.out, "spans-"+stem+".json"), header); err != nil {
			return nil, err
		}
	}
	header["result"] = res
	if oc.raw != nil {
		header["uncalibrated"] = oc.raw
		header["calibration_ns_per_pair"] = map[string]float64{
			"nominal": nominalNsPerPair, "samples": float64(len(oc.refNs)),
			"p5": percentile(oc.refNs, 5), "median": median(oc.refNs), "p95": percentile(oc.refNs, 95),
		}
		for k, v := range oc.detail {
			header[k] = v
		}
	}
	b, err := json.MarshalIndent(header, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "result-"+stem+".json"), b, 0o644); err != nil {
		return nil, err
	}
	hb, _ := json.Marshal(host)
	fmt.Fprintf(o.stdout, "host %s\n", hb)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(o.stdout, string(line))
	return res, nil
}

// format turns an outcome into the result line: exactly the declared
// metric set for the run's mode, each with its unit.
func format(o options, oc *outcome, host hostInfo) (*result, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
		oc.metrics["host.ref_ns_per_pair"] = host.RefNsPerPair
	} else {
		oc.metrics["peak_rss_mb"] = peakRSSMB()
		oc.metrics["ok_ratio"] = float64(oc.attempted-oc.failed) / float64(max(oc.attempted, 1))
	}
	res := &result{Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := oc.metrics[d.name]
		if !ok && o.trace {
			v, ok = 0, true // the layer did no work in this workload
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s: no value for %v", o.workload, missing)
	}
	res.Correct = oc.attempted > 0 && oc.failed == 0
	return res, nil
}

// mix derives an independent 64-bit value from the workload seed and a
// stream number (SplitMix64 finaliser).
func mix(seed, stream uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
