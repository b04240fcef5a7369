package main

import "sync"

// layerTrace accumulates a traced run: the spans plus the counts that
// the spans alone do not carry.
type layerTrace struct {
	t *tracer

	mu          sync.Mutex
	pairs       float64 // pairs examined by force calls
	examined    float64 // pairs examined on final states
	inside      float64 // of those, pairs inside the cutoff
	builds      int
	steps       int
	checkpoints int
	ckptBytes   int64
	incidents   int
	// wall[0] is the untraced wall time of the jobs the traced run
	// repeated, wall[1] the traced wall time of the repeats.
	wall [2]float64
	// extra holds metrics measured outside the spans (serve-side
	// observations, fleet counters, the build speedup).
	extra map[string]float64
}

func newLayerTrace() *layerTrace {
	return &layerTrace{t: newTracer(), extra: map[string]float64{}}
}

// addRunner folds one finished traced runner's counts in.
func (lt *layerTrace) addRunner(r *shadowRunner) {
	ex, in := r.finalPairs()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.pairs += r.fs.pairs
	lt.examined += ex
	lt.inside += in
	lt.builds += r.fs.builds
	lt.steps += r.sys.Steps
}

func (lt *layerTrace) addGuard(g *shadowGuard) {
	lt.addRunner(g.r)
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.checkpoints += g.checkpoints
	lt.ckptBytes += g.ckptBytes
}

// fill computes the per-layer metrics. Times are self time (span
// duration minus child spans) per traced job, except guard.checkpoint_s,
// which includes the clone and encode it calls.
func (lt *layerTrace) fill(m map[string]float64) {
	st := lt.t.totals()
	jobs := 0
	for name, n := range st.count {
		if name == "job" || name == "serve.job" {
			jobs += n
		}
	}
	if jobs == 0 {
		return
	}
	per := func(x float64) float64 { return x / float64(jobs) }
	self := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += st.self[n]
		}
		return per(s)
	}
	ms := func(name string, q float64) float64 {
		if len(st.durations[name]) == 0 {
			return 0
		}
		return percentile(st.durations[name], q) * 1e3
	}
	m["lattice.generate_s"] = self("lattice.generate")
	m["md.new_system_s"] = self("md.new_system")
	m["md.force_s"] = self("md.force", "md.mirror_refresh")
	m["md.force_pairs"] = per(lt.pairs)
	if lt.pairs > 0 {
		m["md.force_ns_per_pair"] = st.self["md.force"] * 1e9 / lt.pairs
	}
	if lt.examined > 0 {
		m["md.pairs_in_cutoff_ratio"] = lt.inside / lt.examined
	}
	m["md.build_s"] = self("md.build")
	m["md.builds"] = per(float64(lt.builds))
	if lt.builds > 0 {
		m["md.steps_per_build"] = float64(lt.steps) / float64(lt.builds)
	}
	m["md.integrate_s"] = self("md.step")
	m["md.pressure_s"] = self("md.pressure")
	m["md.pressure_calls"] = per(float64(st.count["md.pressure"]))
	m["md.checkpoint_encode_s"] = self("md.checkpoint_encode")
	if lt.checkpoints > 0 {
		m["md.checkpoint_bytes"] = float64(lt.ckptBytes) / float64(lt.checkpoints)
	}
	m["md.clone_s"] = self("md.clone")
	m["mdrun.run_calls"] = per(float64(st.count["mdrun.run"]))
	m["mdrun.observe_s"] = self("mdrun.observe")
	m["mdrun.self_s"] = self("mdrun.run")
	m["guard.segment_ms_p50"] = ms("guard.segment", 50)
	m["guard.segment_ms_p95"] = ms("guard.segment", 95)
	m["guard.checkpoint_s"] = per(st.total["guard.checkpoint"])
	m["guard.checkpoints"] = per(float64(lt.checkpoints))
	m["guard.self_s"] = self("guard.new", "guard.run", "guard.segment", "guard.check", "guard.checkpoint")
	m["guard.incidents"] = float64(lt.incidents)
	m["parallel.build_s"] = self("parallel.build")
	m["fleet.replica_wall_ms_p50"] = ms("fleet.replica", 50)
	m["serve.store_put_ms_p50"] = ms("serve.store_put", 50)
	m["trace.jobs"] = float64(jobs)
	if lt.wall[0] > 0 {
		m["trace.overhead_ratio"] = lt.wall[1]/lt.wall[0] - 1
	}
	if st.rootTotal > 0 {
		m["trace.unattributed_ratio"] = st.rootSelf / st.rootTotal
	}
	for k, v := range lt.extra {
		m[k] = v
	}
}
