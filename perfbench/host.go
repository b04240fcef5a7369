package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// hostInfo identifies where a result was measured. Results from
// different hosts are compared only through RefNsPerPair, never raw.
type hostInfo struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	GOAMD64      string  `json:"goamd64"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	RefNsPerPair float64 `json:"ref_ns_per_pair"`
}

// fingerprint describes this host and the source tree under root.
func fingerprint(root string) hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOAMD64:    "unset",
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "vcs.revision":
				h.Commit = s.Value
			}
		}
	}
	h.SourceSHA256 = sourceDigest(root)
	h.RefNsPerPair = refNsPerPair()
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// hidden directories), standing in for the commit when the checkout
// is not a git repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refNsPerPair times refPairLoop, a frozen Lennard-Jones pair loop
// that lives only here so that no optimisation of the program can move
// it: the median over repeats, in ns per pair, calibrates this host.
func refNsPerPair() float64 {
	c := newCalibrator()
	c.sample() // warm-up
	c.samples = nil
	for r := 0; r < 15; r++ {
		c.sample()
	}
	return median(c.samples)
}

// nominalNsPerPair is the reference loop's time per pair on the nominal
// host every end-to-end time is rescaled to: about what the loop takes
// on a 2-vCPU Xeon virtual machine with no busy neighbours.
const nominalNsPerPair = 7.0

// calibrator times refPairLoop between the pieces of measured work.
// The benchmark's host is a shared virtual machine whose speed changes
// by up to 2× with its other tenants' load, within a second at times
// and for minutes at others; the frozen loop slows down with it. When
// the two alternate in slices of about 0.1 s on one thread, the direct
// kernel's rate over the loop's stays within ±3% per second, and the
// pairlist's within ±5%, while both rates swing between 0.6× and 1×
// of their best. The loop timed at the same moment on the other vCPU
// tracks them far less well: each vCPU's speed follows its own
// neighbours. So each measured piece of work is timed between two
// samples of the loop, and its time t is reported as
// t × nominalNsPerPair / ref, with ref the mean of the two samples:
// the time the piece would take on the nominal host. A slower program
// still reads slower, because the loop is frozen. The samples' own
// time is left out of every piece.
type calibrator struct {
	x, y, z []float64
	box     float64
	samples []float64 // ns per pair, in the order taken
	from    time.Time // start of the current piece
	// cpus, when set, are sampled all at once, with a thread pinned to
	// each: work spread over goroutines on every vCPU runs at about the
	// mean of their speeds.
	cpus []int
}

func newCalibrator() *calibrator {
	const n, box = 1024, 10.6
	c := &calibrator{x: make([]float64, n), y: make([]float64, n), z: make([]float64, n), box: box}
	s := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / (1 << 53) * box
	}
	for i := range c.x {
		c.x[i], c.y[i], c.z[i] = next(), next(), next()
	}
	return c
}

// sample records and returns the loop's time per pair: the faster of
// two timed passes (about 3.7 ms each on the nominal host), so that a
// neighbour's burst that stalls one pass does not stand for the host;
// or, with cpus set, the time per pair at the mean speed of such
// samples on each CPU, all taken at once.
func (c *calibrator) sample() float64 {
	var ns float64
	if len(c.cpus) < 2 {
		ns = min(c.pass(), c.pass())
	} else {
		out := make([]float64, len(c.cpus))
		var wg sync.WaitGroup
		for k, cpu := range c.cpus {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread() // held to the end: the thread exits with its affinity
				pinThread(cpu)
				out[k] = min(c.pass(), c.pass())
			}()
		}
		wg.Wait()
		var speed float64
		for _, x := range out {
			speed += 1 / x
		}
		ns = float64(len(out)) / speed
	}
	c.samples = append(c.samples, ns)
	return ns
}

// pass times one run of the loop, in ns per pair.
func (c *calibrator) pass() float64 {
	n := len(c.x)
	t0 := time.Now()
	pe := refPairLoop(c.x, c.y, c.z, c.box, 2.5*2.5)
	ns := float64(time.Since(t0).Nanoseconds()) / float64(n*(n-1)/2)
	if math.IsNaN(pe) {
		return math.NaN()
	}
	return ns
}

// start samples the loop and starts a piece.
func (c *calibrator) start() {
	c.sample()
	c.from = time.Now()
}

// resume starts a piece without a new sample, after untimed work
// short enough that the last sample still stands for the host.
func (c *calibrator) resume() { c.from = time.Now() }

// lap ends the current piece and starts the next. It returns the
// piece's unscaled seconds and the factor that rescales them.
func (c *calibrator) lap() (secs, scale float64) {
	secs = time.Since(c.from).Seconds()
	before := c.samples[len(c.samples)-1]
	after := c.sample()
	c.from = time.Now()
	return secs, nominalNsPerPair / ((before + after) / 2)
}

// refPairLoop is the calibration kernel. Do not edit it: results are
// only comparable across hosts while it stays exactly this loop.
func refPairLoop(x, y, z []float64, box, rc2 float64) float64 {
	var pe float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			dx, dy, dz := x[i]-x[j], y[i]-y[j], z[i]-z[j]
			dx -= box * math.Round(dx/box)
			dy -= box * math.Round(dy/box)
			dz -= box * math.Round(dz/box)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < rc2 {
				ir6 := 1 / (r2 * r2 * r2)
				pe += 4 * (ir6*ir6 - ir6)
			}
		}
	}
	return pe
}
