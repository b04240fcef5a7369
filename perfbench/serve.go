package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// serveSpecs is serve-jobs' fixed spec set, normalized and validated:
// the pairlist f64 NVE path (the fleet's shared build pool), cellgrid
// f32 Berendsen (the f32 mirror) and direct rescale. The linked-cell
// spec shortens the cutoff to fit three cells per box edge, which that
// method needs.
func serveSpecs(o *options) ([]serve.Spec, error) {
	n, steps, every := o.sz.serveAtoms, o.sz.serveSteps, o.sz.serveCkptEvery
	cellCutoff := math.Min(core.StdCutoff, lattice.BoxLength(n, core.StdDensity)/3*0.99)
	specs := []serve.Spec{
		{Atoms: n, Steps: steps, CheckpointEvery: every, Method: "pairlist", Seed: mix(o.seed, 10)},
		{Atoms: n, Steps: steps, CheckpointEvery: every, Method: "cellgrid", Precision: "f32", Thermostat: "berendsen", Cutoff: cellCutoff, Seed: mix(o.seed, 11)},
		{Atoms: n, Steps: steps, CheckpointEvery: every, Method: "direct", Thermostat: "rescale", Seed: mix(o.seed, 12)},
	}
	for i := range specs {
		specs[i] = specs[i].Normalized()
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// jobOrder cycles through the spec set in a seeded order.
func jobOrder(seed uint64, k int) func(i int) int {
	perm := []int{0, 1, 2}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(mix(seed, 20+uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return func(i int) int { return perm[i%k] }
}

// oracle is each spec's final energy from an in-process guard run of
// the same normalized spec.
func oracle(o *options, specs []serve.Spec) ([]float64, error) {
	out := make([]float64, len(specs))
	for i, sp := range specs {
		cfg, err := sp.GuardConfig(filepath.Join(o.work, fmt.Sprintf("oracle-%d", i)))
		if err != nil {
			return nil, err
		}
		sup, err := guard.New(cfg)
		if err != nil {
			return nil, err
		}
		sum, _, err := sup.Run(sp.Steps)
		sup.Close()
		if err != nil {
			return nil, fmt.Errorf("oracle for spec %d: %w", i, err)
		}
		out[i] = sum.FinalEnergy
	}
	return out, nil
}

// liveServer is serve.NewServer behind a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(o *options, dir string) (*liveServer, error) {
	n := runtime.NumCPU()
	srv, err := serve.NewServer(serve.Config{
		DataDir: dir,
		Fleet:   fleet.Config{MaxInflight: n, WorkerBudget: n},
		// Quotas would throttle the closed loop, which measures the
		// service, not the tenancy policy.
		Tenancy: serve.TenantPolicy{Rate: 1e9, Burst: 1e9, MaxActive: 1 << 20},
		Faults:  o.faults,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	resp, err := http.Get(ls.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop closes the listener, waits for the serve goroutine, and drains
// the fleet.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx)
	<-ls.done
	_ = ls.srv.Drain(ctx)
}

// clientJob is one served job as a client sees it.
type clientJob struct {
	ok                   bool
	epoch                int     // the serveClosedLoop epoch it ran in
	submit, total        float64 // seconds: POST→202, POST→SSE done
	firstEvent, doneLast float64 // POST return→first segment, last segment→done
	events               int
	atomSteps            float64
	attempts             int
	incidents            bool // the report lists guard or fleet incidents
}

// serveEpoch is how long the clients run between two calibration
// samples. At its end each client finishes the job it has in flight,
// so the sample runs on an idle server.
const serveEpoch = 500 * time.Millisecond

// serveClosedLoop runs nproc clients until the deadline, in epochs of
// serveEpoch with a calibration sample before each epoch and after the
// last. In each epoch every client submits a job, follows its events
// to done, checks its report, then submits the next, at least once.
// Client 0 also calls between, with the epoch, after every
// restartEvery-th job it completes. It returns the jobs and each
// epoch's wall time and scale (see calibrator).
func serveClosedLoop(o *options, oc *outcome, ls *liveServer, specs []serve.Spec, want []float64, dur time.Duration, cal *calibrator, between func(epoch int) error) ([]clientJob, [][2]float64, error) {
	n := runtime.NumCPU()
	order := jobOrder(o.seed, len(specs))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * n}}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var mu sync.Mutex
	var out []clientJob
	var epochs [][2]float64
	var betweenErr error
	client0Done := 0
	start := time.Now()
	cal.start()
	for e := 0; betweenErr == nil && (e == 0 || time.Since(start) < dur); e++ {
		end := time.Now().Add(min(serveEpoch, dur))
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for first := true; first || time.Now().Before(end); first = false {
					i := int(next.Add(1) - 1)
					k := order(i)
					cj, err := serveOne(client, ls.url, specs[k], want[k])
					cj.epoch = e
					mu.Lock()
					oc.attempted++
					if err != nil {
						oc.fail("job %d (spec %d): %v", i, k, err)
					}
					out = append(out, cj)
					mu.Unlock()
					if c == 0 {
						if client0Done++; client0Done%restartEvery == 0 && betweenErr == nil {
							betweenErr = between(e)
						}
					}
				}
			}()
		}
		wg.Wait()
		secs, scale := cal.lap()
		epochs = append(epochs, [2]float64{secs, scale})
	}
	return out, epochs, betweenErr
}

// serveOne submits one spec and follows it to its checked report.
func serveOne(client *http.Client, url string, sp serve.Spec, want float64) (clientJob, error) {
	var cj clientJob
	body, err := json.Marshal(sp)
	if err != nil {
		return cj, err
	}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return cj, err
	}
	req.Header.Set("X-Tenant", "perfbench")
	resp, err := client.Do(req)
	if err != nil {
		return cj, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	tSubmit := time.Now()
	cj.submit = tSubmit.Sub(t0).Seconds()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return cj, fmt.Errorf("submit: %s (%v)", resp.Status, err)
	}
	resp, err = client.Get(url + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		return cj, err
	}
	var first, last time.Time
	status := ""
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		if event == "segment" {
			if cj.events == 0 {
				first = now
			}
			last = now
			cj.events++
		} else if event == "done" {
			var d struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(data), &d); err != nil {
				resp.Body.Close()
				return cj, err
			}
			status = d.Status
			cj.total = now.Sub(t0).Seconds()
			if cj.events > 0 {
				cj.firstEvent = first.Sub(tSubmit).Seconds()
				cj.doneLast = now.Sub(last).Seconds()
			}
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if status != serve.StatusDone {
		return cj, fmt.Errorf("events ended with status %q (%v)", status, sc.Err())
	}
	resp, err = client.Get(url + "/v1/jobs/" + sub.ID + "/report")
	if err != nil {
		return cj, err
	}
	var rec serve.TerminalRecord
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil {
		return cj, fmt.Errorf("report: %w", err)
	}
	cj.attempts = rec.Attempts
	cj.incidents = rec.Incidents != ""
	switch {
	case rec.Status != serve.StatusDone || rec.Summary == nil:
		return cj, fmt.Errorf("report status %q: %s", rec.Status, rec.Error)
	case rec.Incidents != "":
		return cj, fmt.Errorf("report incidents: %s", rec.Incidents)
	case rec.Summary.Steps != sp.Steps:
		return cj, fmt.Errorf("report steps %d, spec %d", rec.Summary.Steps, sp.Steps)
	case rec.Summary.FinalEnergy != want:
		return cj, fmt.Errorf("final energy %v, in-process guard oracle %v", rec.Summary.FinalEnergy, want)
	}
	cj.ok = true
	cj.atomSteps = float64(sp.Atoms * sp.Steps)
	return cj, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var total float64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += float64(info.Size())
			}
		}
		return nil
	})
	return total
}

func runServeJobs(o *options) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}}
	specs, err := serveSpecs(o)
	if err != nil {
		return nil, err
	}
	want, err := oracle(o, specs)
	if err != nil {
		return nil, err
	}
	// Set-up is a server start over a store of finished jobs (the
	// recovery scan included), timed before the run and then after
	// every restartEvery-th job of client 0, so that its median spans
	// the run like the other metrics.
	fixture := filepath.Join(o.work, "restart")
	if err := restartStore(fixture, specs); err != nil {
		return nil, err
	}
	var setups []float64
	var setupEpochs []int
	restart := func(epoch int) error {
		t0 := time.Now()
		ls, err := startServer(o, fixture)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupEpochs = append(setupEpochs, epoch)
		ls.stop()
		return nil
	}
	if err := restart(0); err != nil {
		return nil, err
	}
	data := filepath.Join(o.work, "data")
	ls, err := startServer(o, data)
	if err != nil {
		return nil, err
	}
	dur := o.duration
	if o.trace {
		dur /= 2 // the other half repeats the jobs through the traced composition
	}
	cal := newCalibrator()
	cal.cpus = allowedCPUs() // the clients and the server use every CPU
	done, epochs, err := serveClosedLoop(o, oc, ls, specs, want, dur, cal, restart)
	if err != nil {
		ls.stop()
		return nil, err
	}
	shed, err := serverShed(ls.url)
	ls.stop()
	if err != nil {
		return nil, err
	}
	for _, cj := range done {
		if cj.incidents {
			oc.incidents++
		}
	}
	if !o.trace {
		oc.metrics = serveMetrics(done, epochs, setups, setupEpochs, func(e int) float64 { return epochs[e][1] })
		oc.raw = serveMetrics(done, epochs, setups, setupEpochs, func(int) float64 { return 1 })
		oc.refNs = cal.samples
		perEpoch := make([][3]float64, len(epochs))
		for e, ep := range epochs {
			perEpoch[e] = [3]float64{ep[0], ep[1], 0}
		}
		for _, cj := range done {
			if cj.ok {
				perEpoch[cj.epoch][2]++
			}
		}
		oc.detail = map[string]any{"epoch_seconds_scale_jobs": perEpoch}
		return oc, nil
	}

	var first, doneLast, events, attempts []float64
	okJobs := 0
	for _, cj := range done {
		if !cj.ok {
			continue
		}
		okJobs++
		first = append(first, cj.firstEvent*1e3)
		doneLast = append(doneLast, cj.doneLast*1e3)
		events = append(events, float64(cj.events))
		attempts = append(attempts, float64(cj.attempts))
	}
	lt := newLayerTrace()
	oc.tr = lt.t
	lt.extra["serve.first_event_ms_p50"] = median(first)
	lt.extra["serve.done_after_last_event_ms_p50"] = median(doneLast)
	lt.extra["serve.events_per_job"] = sum(events) / float64(max(okJobs, 1))
	lt.extra["serve.disk_bytes_per_job"] = dirBytes(data) / float64(max(len(done), 1))
	lt.extra["fleet.attempts_per_job"] = sum(attempts) / float64(max(okJobs, 1))
	lt.extra["fleet.shed"] = float64(shed)
	shadowWall, err := serveTraced(o, oc, lt, specs, want, len(done))
	if err != nil {
		return nil, err
	}
	var wall float64
	for _, ep := range epochs {
		wall += ep[0]
	}
	lt.wall = [2]float64{wall, shadowWall}
	lt.incidents = oc.incidents
	speedup, err := buildSpeedup(specs[0])
	if err != nil {
		return nil, err
	}
	lt.extra["parallel.build_speedup_vs_serial"] = speedup
	lt.fill(oc.metrics)
	return oc, nil
}

// serveMetrics are serve-jobs' end-to-end metrics, every time measured
// in epoch e multiplied by scale(e) (see calibrator). Set-up is the
// median server start; failed jobs are left out of the latencies.
func serveMetrics(done []clientJob, epochs [][2]float64, setups []float64, setupEpochs []int, scale func(e int) float64) map[string]float64 {
	var total, submit, setup []float64
	var atomSteps, wall float64
	okJobs := 0
	for _, cj := range done {
		if !cj.ok {
			continue
		}
		okJobs++
		f := scale(cj.epoch)
		total = append(total, cj.total*f*1e3)
		submit = append(submit, cj.submit*f*1e3)
		atomSteps += cj.atomSteps
	}
	if okJobs == 0 {
		// Every job failed its check: report the failures, with the
		// latencies of a service that delivered nothing.
		total, submit = []float64{math.MaxFloat64}, []float64{math.MaxFloat64}
	}
	for e, ep := range epochs {
		wall += ep[0] * scale(e)
	}
	for k, t := range setups {
		setup = append(setup, t*scale(setupEpochs[k]))
	}
	return map[string]float64{
		"setup_s":               median(setup),
		"atom_steps_per_s":      atomSteps / wall,
		"jobs_per_s":            float64(okJobs) / wall,
		"job_latency_p50_ms":    percentile(total, 50),
		"job_latency_p95_ms":    percentile(total, 95),
		"submit_latency_p50_ms": percentile(submit, 50),
		"submit_latency_p95_ms": percentile(submit, 95),
	}
}

// restartJobs is the number of finished jobs in the store every timed
// server start scans, and restartEvery how many of client 0's jobs pass
// between two timed starts.
const restartJobs, restartEvery = 256, 4

// restartStore writes restartJobs finished jobs of the spec set into a
// job store at dir.
func restartStore(dir string, specs []serve.Spec) error {
	st, err := serve.NewStore(dir)
	if err != nil {
		return err
	}
	for i := 0; i < restartJobs; i++ {
		id, sp := serve.JobID(i+1), specs[i%len(specs)]
		if err := st.PutSpec(serve.JobRecord{ID: id, Tenant: "perfbench", Spec: sp}); err != nil {
			return err
		}
		sum := &mdrun.Summary{Steps: sp.Steps}
		if err := st.PutTerminal(serve.TerminalRecord{ID: id, Status: serve.StatusDone, Summary: sum, Attempts: 1}); err != nil {
			return err
		}
	}
	return nil
}

// serverShed reads the fleet's shed count from /v1/stats.
func serverShed(url string) (int64, error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Shed int64 `json:"shed"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.Shed, err
}

// serveTraced repeats the first jobs jobs through the serving path's
// public functions: serve.Store.PutSpec, a fleet slot, the replica's
// guarded run on the shared build engine, the final clone fleet takes,
// serve.Store.PutTerminal. It returns the wall time.
func serveTraced(o *options, oc *outcome, lt *layerTrace, specs []serve.Spec, want []float64, jobs int) (float64, error) {
	n := runtime.NumCPU()
	store, err := serve.NewStore(filepath.Join(o.work, "traced"))
	if err != nil {
		return 0, err
	}
	engine := parallel.New[float64](n) // fleet's shared pool: WorkerBudget = nproc
	defer engine.Close()
	slots := make(chan struct{}, n) // fleet.Config.MaxInflight = nproc
	order := jobOrder(o.seed, len(specs))
	t := lt.t
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= jobs {
					return
				}
				k := order(i)
				energy, err := serveTracedJob(t, lt, store, engine, slots, i, specs[k])
				mu.Lock()
				oc.attempted++
				switch {
				case errors.Is(err, errSetup):
					if firstErr == nil {
						firstErr = err
					}
				case err != nil:
					oc.fail("traced job %d: %v", i, err)
				case energy != want[k]:
					oc.fail("traced job %d: final energy %v, oracle %v", i, energy, want[k])
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds(), firstErr
}

var errSetup = errors.New("perfbench: traced serving set-up")

func serveTracedJob(t *tracer, lt *layerTrace, store *serve.Store, engine *parallel.Engine[float64], slots chan struct{}, i int, sp serve.Spec) (float64, error) {
	root := t.begin("serve.job", i, -1)
	defer t.end(root)
	id := serve.JobID(i + 1)
	var err error
	t.do("serve.store_put", i, root, func(int) { err = store.PutSpec(serve.JobRecord{ID: id, Tenant: "perfbench", Spec: sp}) })
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errSetup, err)
	}
	t.do("fleet.queue", i, root, func(int) { slots <- struct{}{} })
	rep := t.begin("fleet.replica", i, root)
	cfg, err := sp.GuardConfig(store.CheckpointDir(id))
	if err != nil {
		<-slots
		t.end(rep)
		return 0, fmt.Errorf("%w: %v", errSetup, err)
	}
	cfg.Run.BuildEngine = engine
	g, err := newShadowGuard(t, i, rep, cfg)
	if err == nil {
		err = g.run(sp.Steps, rep)
	}
	var sum *mdrun.Summary
	if err == nil {
		t.do("md.clone", i, rep, func(int) { _ = g.r.sys.Clone() })
		sum = &mdrun.Summary{Steps: sp.Steps, InitialEnergy: g.e0, FinalEnergy: g.r.sys.TotalEnergy()}
	}
	t.end(rep)
	<-slots
	if err != nil {
		return 0, err
	}
	t.do("serve.store_put", i, root, func(int) {
		err = store.PutTerminal(serve.TerminalRecord{ID: id, Status: serve.StatusDone, Summary: sum, Attempts: 1})
	})
	if err != nil {
		return 0, err
	}
	lt.addGuard(g)
	return sum.FinalEnergy, nil
}

// buildSpeedup times the serial neighbour-list build against
// Engine.BuildPairlist on an nproc pool, on the same positions.
func buildSpeedup(sp serve.Spec) (float64, error) {
	st, err := lattice.Generate(lattice.Config{N: sp.Atoms, Density: sp.Density, Temperature: sp.Temperature, Kind: lattice.FCC, Seed: sp.Seed})
	if err != nil {
		return 0, err
	}
	sys, err := md.NewSystem(st, md.Params[float64]{Box: st.Box, Cutoff: sp.Cutoff, Dt: sp.Dt})
	if err != nil {
		return 0, err
	}
	engine := parallel.New[float64](runtime.NumCPU())
	defer engine.Close()
	// Each side rebuilds its own list in place, as a run does; the
	// first build of each sizes the list's arenas and is not timed.
	serialNL, err := md.NewNeighborList[float64](sp.Skin)
	if err != nil {
		return 0, err
	}
	parNL, err := md.NewNeighborList[float64](sp.Skin)
	if err != nil {
		return 0, err
	}
	const reps = 21
	var serial, par []float64
	for r := 0; r <= reps; r++ {
		t0 := time.Now()
		serialNL.Build(sys.P, sys.Pos)
		ts := time.Since(t0).Seconds()
		t0 = time.Now()
		if err := engine.BuildPairlist(context.Background(), parNL, sys.P, sys.Pos); err != nil {
			return 0, err
		}
		if r > 0 {
			serial = append(serial, ts)
			par = append(par, time.Since(t0).Seconds())
		}
	}
	return median(serial) / median(par), nil
}
