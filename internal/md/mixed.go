package md

import (
	"fmt"

	"repro/internal/vec"
)

// This file is the float32 host fast path: the same widen-compute-
// narrow discipline the paper's single-precision devices (Cell SPE,
// GPU float4) apply, brought to the host kernels. Pair geometry —
// minimum image, r², the LJ pair evaluation — runs in float32, which
// halves the working-set bytes of the hot loop; per-atom force and
// energy accumulation stay in float64, so no accumulator ever sums
// float32 into float32. The kernels are the float64 pairlist and cell
// kernels (ForcesPairRange, cellForces) instantiated with float32
// geometry and float64 accumulation; their only conversion is the
// exact widening of each pair term that vec.AccumAdd and vec.Widen
// perform. The float64 System remains the master state: integration,
// thermostat, checkpoints, and the guard watchdog are untouched, and
// the fast path only ever reads a narrowed mirror of the positions and
// writes float64 accelerations back.

// NarrowParams narrows float64 simulation parameters to the float32
// kernel width via the audited vec.Narrow helper.
func NarrowParams(p Params[float64]) Params[float32] {
	return Params[float32]{
		Box:     vec.Narrow[float32](p.Box),
		Cutoff:  vec.Narrow[float32](p.Cutoff),
		Dt:      vec.Narrow[float32](p.Dt),
		Epsilon: vec.Narrow[float32](p.Epsilon),
		Sigma:   vec.Narrow[float32](p.Sigma),
		Shifted: p.Shifted,
	}
}

// Mirror32 is the float32 shadow of a float64 master state: narrowed
// parameters plus a narrowed position buffer, refreshed from the
// master once per force evaluation. Only positions are mirrored —
// velocities, accelerations, and energies never exist at float32 on
// the host fast path.
type Mirror32 struct {
	P   Params[float32]
	Pos Coords[float32]

	// synced is true once Pos holds a complete narrow of the master it
	// was last refreshed from, which is what licenses the incremental
	// RefreshSystem path to narrow only the dirty window.
	synced bool
	// rowsNarrowed counts the individual rows narrowed across all
	// refreshes — the observable the dirty-row counting test pins.
	rowsNarrowed int64
}

// NewMirror32 narrows the parameters and validates them at float32:
// a box/cutoff pair that is valid in double precision can round to an
// invalid one in single (2*Cutoff > Box after narrowing), and that
// must fail at construction, not corrupt a minimum image mid-run.
func NewMirror32(p Params[float64]) (*Mirror32, error) {
	p32 := NarrowParams(p)
	if err := p32.Validate(); err != nil {
		return nil, fmt.Errorf("md: params do not survive narrowing to float32: %w", err)
	}
	return &Mirror32{P: p32}, nil
}

// narrowRows narrows master rows [lo, hi) into the mirror planes.
func (m *Mirror32) narrowRows(pos Coords[float64], lo, hi int) {
	for i := lo; i < hi; i++ {
		m.Pos.X[i] = vec.Narrow[float32](pos.X[i])
		m.Pos.Y[i] = vec.Narrow[float32](pos.Y[i])
		m.Pos.Z[i] = vec.Narrow[float32](pos.Z[i])
	}
	m.rowsNarrowed += int64(hi - lo)
}

// Refresh narrows the master positions into the mirror, all rows,
// unconditionally. Each conversion is a correctly-rounded Narrow; the
// cost is O(N) against the force loop's O(N·pairs). Callers that hold
// the master System should prefer RefreshSystem, which skips rows the
// master has not touched since the last refresh.
func (m *Mirror32) Refresh(pos Coords[float64]) {
	m.Pos.Resize(pos.Len())
	m.narrowRows(pos, 0, pos.Len())
	m.synced = true
}

// RefreshSystem narrows only the master rows dirtied since the last
// refresh, claiming the system's dirty-position window. The first call
// (or any call after the mirror lost sync with the master's size)
// narrows everything; a call when the master has not moved narrows
// nothing — the fix for the full-shadow refresh the mirror used to pay
// on every evaluation even between position updates. Single consumer:
// one mirror per System, or windows will be claimed out from under
// each other.
func (m *Mirror32) RefreshSystem(s *System[float64]) {
	n := s.N()
	if !m.synced || m.Pos.Len() != n {
		s.ClaimPosDirty() // consumed by the full refresh below
		m.Refresh(s.Pos)
		return
	}
	lo, hi := s.ClaimPosDirty()
	m.narrowRows(s.Pos, lo, hi)
}

// RowsNarrowed returns the cumulative number of rows narrowed by all
// refreshes of this mirror.
func (m *Mirror32) RowsNarrowed() int64 { return m.rowsNarrowed }

// ForcesPairlistMixed evaluates the Verlet-list LJ forces with
// float32 pair geometry and float64 accumulation: the list is rebuilt
// from the float32 positions if stale, each pair's displacement,
// distance, and LJ terms are computed at float32, and the resulting
// pair force is widened exactly into the float64 accumulators. acc is
// overwritten; the return value is the float64 potential energy. The
// pair order is the list order (fixed by the build, which is itself
// bitwise sharding-independent), so the result is deterministic.
func ForcesPairlistMixed(nl *NeighborList[float32], p Params[float32], pos Coords[float32], acc Coords[float64]) float64 {
	if nl.Stale(p, pos) {
		nl.Build(p, pos)
	}
	acc.Zero()
	pe := ForcesPairRange(nl, p, pos, acc, 0, nl.PairCount())
	nl.queries++
	return pe
}

// ForcesCellMixed evaluates the linked-cell LJ forces with float32
// pair geometry and float64 accumulation, rebuilding the grid from
// the float32 positions first (O(N), tracks every step). acc is
// overwritten; the return value is the float64 potential energy.
func ForcesCellMixed(cl *CellList[float32], p Params[float32], pos Coords[float32], acc Coords[float64]) float64 {
	cl.Build(pos)
	acc.Zero()
	return cellForces(cl, p, pos, acc)
}

// FullRows is the gather (full-shell) view of a NeighborList: for
// every atom i, all neighbors — j < i and j > i — in ascending order,
// derived from the half (j > i) rows the list stores. The parallel
// mixed-precision kernel shards atoms over workers and has each one
// gather its own atoms' full rows, so every acc[i] is written by
// exactly one worker in an order fixed by the list alone — the
// property that makes the f32 output bytes independent of the worker
// count. Sync rebuilds the expansion only when the list has been
// rebuilt since the last call (tracked via Builds()).
type FullRows[T vec.Float] struct {
	rows   [][]int32
	flat   []int32 // backing store for rows, one allocation per resize
	counts []int32 // per-atom degree scratch
	seen   int     // nl.Builds() at the last Sync
}

// Sync brings the expansion up to date with nl. It is cheap when the
// list has not been rebuilt (one counter compare).
func (fr *FullRows[T]) Sync(nl *NeighborList[T]) {
	if fr.seen == nl.builds && len(fr.rows) == len(nl.pairs) {
		return
	}
	n := len(nl.pairs)
	if cap(fr.counts) < n {
		fr.counts = make([]int32, n)
		fr.rows = make([][]int32, n)
	}
	fr.counts = fr.counts[:n]
	fr.rows = fr.rows[:n]
	for i := range fr.counts {
		fr.counts[i] = 0
	}
	total := 0
	for i, js := range nl.pairs {
		fr.counts[i] += int32(len(js))
		for _, j := range js {
			fr.counts[j]++
		}
		total += 2 * len(js)
	}
	if cap(fr.flat) < total {
		fr.flat = make([]int32, total)
	}
	fr.flat = fr.flat[:total]
	off := int32(0)
	for i, c := range fr.counts {
		fr.rows[i] = fr.flat[off : off : off+c]
		off += c
	}
	// Scanning i ascending appends, for every atom k, first its
	// smaller neighbors (in ascending i) and then — at i == k — its
	// larger ones (ascending by list order), so each full row comes
	// out globally ascending with no sort.
	for i, js := range nl.pairs {
		for _, j := range js {
			fr.rows[i] = append(fr.rows[i], j)
			fr.rows[j] = append(fr.rows[j], int32(i))
		}
	}
	fr.seen = nl.builds
}

// Row returns atom i's full neighbor row, ascending. Valid until the
// next Sync that observes a rebuild; callers must treat it as
// read-only.
func (fr *FullRows[T]) Row(i int) []int32 { return fr.rows[i] }
