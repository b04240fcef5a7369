package md

import (
	"fmt"
	"slices"

	"repro/internal/vec"
)

// NeighborList is the Verlet pairlist optimization the paper describes
// as "one of the most common techniques" for taming the MD kernel's
// cache behaviour (section 3.4) — and then deliberately avoids, to keep
// the kernel's memory access pattern irregular. It lives here for the
// ablation benches that quantify exactly what the paper left on the
// table on the cache-based baseline.
//
// The list stores, for every atom i, the atoms j > i within
// Cutoff+Skin. It is valid until some atom has moved more than Skin/2
// since the last build, at which point pairs may be missed and the list
// must be rebuilt.
type NeighborList[T vec.Float] struct {
	Skin T // extra shell beyond the cutoff (> 0)

	pairs   [][]int32 // pairs[i] = neighbors j > i, ascending
	ref     Coords[T] // positions at build time
	builds  int       // number of (re)builds performed
	queries int       // number of force evaluations served

	// rowArena backs every row with stride int32 slots so steady-state
	// rebuilds append within capacity instead of ratcheting per-row
	// allocations forever (a row whose occupancy sets a new all-time
	// high would otherwise realloc — across thousands of rows that
	// tail never dies). A row that overflows its stride escapes the
	// arena for that one build; EndBuild then re-strides with slack,
	// so overflow is self-healing and allocation stays off the steady
	// state.
	rowArena []int32
	stride   int

	// grid is the cell binning the build gathers over, embedded by
	// value so rebuilds re-geometry it in place (reinit) instead of
	// reconstructing — its arenas persist across box/dims changes and
	// the erroring constructor stays off the hot path. gridOK is false
	// when the box cannot support cell binning and the build falls back
	// to the reference O(N²) scan.
	grid   CellList[T]
	gridOK bool
}

// NewNeighborList creates an empty list with the given skin width.
func NewNeighborList[T vec.Float](skin T) (*NeighborList[T], error) {
	if skin <= 0 {
		return nil, fmt.Errorf("md: neighbor list skin must be positive, got %v", skin)
	}
	return &NeighborList[T]{Skin: skin}, nil
}

// Builds returns how many times the list has been (re)built.
func (nl *NeighborList[T]) Builds() int { return nl.builds }

// Queries returns how many force evaluations the list has served.
func (nl *NeighborList[T]) Queries() int { return nl.queries }

// Build rebuilds the list from the current positions. When the box can
// hold a 3×3×3 grid of (Cutoff+Skin)-wide cells the build bins atoms
// and gathers each row from the 27 neighboring cells — O(N·density)
// instead of the reference scan's O(N²) — and otherwise falls back to
// the O(N²) scan. Both paths emit, for every atom i, exactly the
// neighbors j > i within Cutoff+Skin in ascending-j order, so the
// built list (and every force evaluation over it) is bitwise
// independent of the path taken. BuildN2 pins this in the tests.
func (nl *NeighborList[T]) Build(p Params[T], pos Coords[T]) {
	grid := nl.BeginBuild(p, pos)
	for i := 0; i < pos.Len(); i++ {
		nl.BuildRow(p, pos, grid, i)
	}
	nl.EndBuild(pos)
}

// BuildN2 rebuilds the list with the reference O(N²) scan regardless
// of whether the box supports cell binning — the oracle the property
// tests, the fuzz target, and the build benchmarks compare the
// cell-binned and parallel builds against.
func (nl *NeighborList[T]) BuildN2(p Params[T], pos Coords[T]) {
	nl.sizeRows(pos.Len())
	for i := 0; i < pos.Len(); i++ {
		nl.BuildRow(p, pos, nil, i)
	}
	nl.EndBuild(pos)
}

// maxBuildGridDims bounds the build grid's per-edge cell count: more
// cells than ~8 atoms' worth buys nothing (most cells are empty) and a
// pathological box/cutoff ratio must not size a grid at all. The floor
// of 3 is the CellList minimum; the hard ceiling keeps the head array
// bounded for any input.
func maxBuildGridDims(n int) int {
	const hardCap = 128 // 128³ cells ≈ 2M int32 heads, the most a build may allocate
	d := 3
	for d < hardCap && (d+1)*(d+1)*(d+1) <= 8*n {
		d++
	}
	return d
}

// buildGridDims returns the per-edge cell count for the cell-binned
// build, or 0 when the geometry forces the O(N²) fallback. Guards are
// written so NaN/Inf boxes and radii answer 0 or a clamped grid, never
// a panic: the comparison form !(x > 0) is false-for-NaN on both sides.
func buildGridDims[T vec.Float](box, rl T, n int) int {
	if !(box > 0) || !(rl > 0) {
		return 0
	}
	r := box / rl // +Inf when rl underflows the division; handled below
	if !(r >= 3) {
		return 0
	}
	maxDims := maxBuildGridDims(n)
	if r >= T(maxDims) { // also catches +Inf before any float→int conversion
		return maxDims
	}
	return int(r)
}

// BeginBuild prepares a rebuild: it sizes the row table and returns
// the cell grid rows should gather over, or nil when the box cannot
// support cell binning (rows then fall back to the O(N²) scan). It is
// exported, together with BuildRow and EndBuild, for the sharded
// parallel builder in internal/parallel; serial callers use Build.
func (nl *NeighborList[T]) BeginBuild(p Params[T], pos Coords[T]) *CellList[T] {
	nl.sizeRows(pos.Len())
	rl := p.Cutoff + nl.Skin
	dims := buildGridDims(p.Box, rl, pos.Len())
	if dims == 0 {
		nl.gridOK = false
		return nil
	}
	nl.grid.reinit(p.Box, dims)
	nl.gridOK = true
	nl.grid.BinWrapped(pos)
	return &nl.grid
}

// initialRowStride is the first-build guess at the per-row arena
// width; EndBuild re-strides from observed occupancy if it is short.
const initialRowStride = 64

// sizeRows resizes the row table to n atoms and points every row at
// its stride-wide arena slot (length 0, capacity stride — the 3-index
// slice keeps an overflowing append from bleeding into the next row).
// noinline keeps the grow-once makes a single ledger site each instead
// of one per inlined caller.
//
//go:noinline
func (nl *NeighborList[T]) sizeRows(n int) {
	if cap(nl.pairs) < n {
		nl.pairs = make([][]int32, n) //mdlint:ignore hotalloc amortized grow-once rebuild buffer, reused while capacity suffices
	}
	nl.pairs = nl.pairs[:n]
	if nl.stride == 0 {
		nl.stride = initialRowStride
	}
	if cap(nl.rowArena) < n*nl.stride {
		nl.rowArena = newRowArena(n * nl.stride)
	}
	nl.rowArena = nl.rowArena[:n*nl.stride]
	for i := range nl.pairs {
		off := i * nl.stride
		nl.pairs[i] = nl.rowArena[off : off : off+nl.stride]
	}
}

// newRowArena is the one audited allocation both the grow-once sizing
// and the rare re-stride share. noinline pins it as a single ledger
// site.
//
//go:noinline
func newRowArena(n int) []int32 {
	return make([]int32, n) //mdlint:ignore hotalloc amortized row arena; grows on atom-count or stride increase, reused otherwise
}

// restride widens the row arena when some row outgrew its slot this
// build (its append escaped the arena). The 25%+8 slack makes the
// stride converge in a handful of events per run, after which rebuilds
// are allocation-free; rows are copied so the committed list stays
// valid for force evaluations until the next build.
func (nl *NeighborList[T]) restride() {
	maxLen := 0
	for _, r := range nl.pairs {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	if maxLen <= nl.stride {
		return
	}
	stride := maxLen + maxLen/4 + 8
	arena := newRowArena(len(nl.pairs) * stride)
	for i, r := range nl.pairs {
		off := i * stride
		nl.pairs[i] = arena[off : off+len(r) : off+stride]
		copy(nl.pairs[i], r)
	}
	nl.rowArena, nl.stride = arena, stride
}

// BuildRow fills pairs[i]: the neighbors j > i within Cutoff+Skin, in
// ascending-j order. With a grid it gathers candidates from atom i's
// cell and its 26 periodic neighbors and sorts the survivors (the
// gather visits cells in shell order, so a sort restores the global
// ascending order the O(N²) scan produces by construction); with a nil
// grid it is the reference scan for one row. Rows are independent:
// the parallel builder shards them by range with no post-merge.
func (nl *NeighborList[T]) BuildRow(p Params[T], pos Coords[T], grid *CellList[T], i int) {
	row := nl.pairs[i][:0]
	rl := p.Cutoff + nl.Skin
	rl2 := rl * rl
	box, h := p.Box, p.Box/2
	n := pos.Len()
	x, y, z := pos.X[:n], pos.Y[:n], pos.Z[:n]
	xi, yi, zi := x[i], y[i], z[i]
	if grid == nil {
		for j := i + 1; j < n; j++ {
			dx := MinImageAxis(xi-x[j], box, h)
			dy := MinImageAxis(yi-y[j], box, h)
			dz := MinImageAxis(zi-z[j], box, h)
			if dx*dx+dy*dy+dz*dz < rl2 {
				row = append(row, int32(j))
			}
		}
		nl.pairs[i] = row
		return
	}
	var cellbuf [27]int
	order := grid.order
	px, py, pz := grid.packed.X[:len(order)], grid.packed.Y[:len(order)], grid.packed.Z[:len(order)]
	home := grid.CellOfWrapped(vec.V3[T]{X: xi, Y: yi, Z: zi})
	for _, c := range grid.NeighborCells(home, cellbuf[:]) {
		lo, hi := grid.CellSpan(c)
		// order is ascending within the run, so the j <= i prefix ends at
		// the first index past i; everything after it needs only the
		// distance test.
		k := lo
		for k < hi && int(order[k]) <= i {
			k++
		}
		for ; k < hi; k++ {
			dx := MinImageAxis(xi-px[k], box, h)
			dy := MinImageAxis(yi-py[k], box, h)
			dz := MinImageAxis(zi-pz[k], box, h)
			if dx*dx+dy*dy+dz*dz < rl2 {
				row = append(row, order[k])
			}
		}
	}
	slices.Sort(row)
	nl.pairs[i] = row
}

// EndBuild commits a rebuild: reference positions for the staleness
// check, and the build counter. A build abandoned before EndBuild (a
// cancelled parallel build) leaves ref at the last committed build,
// so Stale keeps answering true and the next evaluation rebuilds — a
// torn row table is never trusted. The per-plane appends are amortized
// grow-once and invisible to the steady state.
func (nl *NeighborList[T]) EndBuild(pos Coords[T]) {
	nl.restride()
	nl.ref.X = append(nl.ref.X[:0], pos.X...)
	nl.ref.Y = append(nl.ref.Y[:0], pos.Y...)
	nl.ref.Z = append(nl.ref.Z[:0], pos.Z...)
	nl.builds++
}

// Stale reports whether any atom has moved more than Skin/2 since the
// last build (in which case the list can no longer be trusted).
func (nl *NeighborList[T]) Stale(p Params[T], pos Coords[T]) bool {
	n := pos.Len()
	if nl.ref.Len() != n {
		return true
	}
	limit := nl.Skin / 2
	limit2 := limit * limit
	box, h := p.Box, p.Box/2
	x, y, z := pos.X[:n], pos.Y[:n], pos.Z[:n]
	rx, ry, rz := nl.ref.X[:n], nl.ref.Y[:n], nl.ref.Z[:n]
	for i := 0; i < n; i++ {
		dx := MinImageAxis(x[i]-rx[i], box, h)
		dy := MinImageAxis(y[i]-ry[i], box, h)
		dz := MinImageAxis(z[i]-rz[i], box, h)
		if dx*dx+dy*dy+dz*dz > limit2 {
			return true
		}
	}
	return false
}

// Forces evaluates the LJ forces using the list, rebuilding it first if
// it is stale. acc is overwritten; the return value is the potential
// energy. The result matches ComputeForces to rounding (the list only
// prunes pairs that are provably outside the cutoff).
func (nl *NeighborList[T]) Forces(p Params[T], pos Coords[T], acc Coords[T]) T {
	if nl.Stale(p, pos) {
		nl.Build(p, pos)
	}
	acc.Zero()
	pe := ForcesPairRange(nl, p, pos, acc, 0, nl.PairCount())
	nl.queries++
	return pe
}

// ForcesPairRange is the half-list kernel over the flattened pairs
// [lo, hi) of nl, numbered row by row in list order; a range may start
// and end inside a row. Pair geometry and the LJ terms run at the
// list's width T, and each pair force and energy is folded into acc
// and the returned total at width A. A(x) is a no-op when A is T and
// an exact widening otherwise, so each update is bitwise the one
// Coords.Add/Sub (same width) or vec.AccumAdd/AccumSub (float32 into
// float64) would make. acc is accumulated into, not cleared: callers
// zero it first, and an empty range leaves it untouched. The list must
// be built for pos.
//
// NeighborList.Forces runs it over every pair, ForcesPairlistMixed
// with float32 geometry and float64 accumulation, and the parallel
// engine once per worker's pair chunk into a private buffer.
func ForcesPairRange[T, A vec.Float](nl *NeighborList[T], p Params[T], pos Coords[T], acc Coords[A], lo, hi int) A {
	lj := NewLJTerms(p)
	rc2, box, h := p.Cutoff*p.Cutoff, p.Box, p.Box/2
	n := pos.Len()
	x, y, z := pos.X[:n], pos.Y[:n], pos.Z[:n]
	ax, ay, az := acc.X[:n], acc.Y[:n], acc.Z[:n]
	var pe A
	start := 0 // flattened index of row i's first pair
	for i := 0; i < len(nl.pairs) && start < hi; i++ {
		js := nl.pairs[i]
		end := start + len(js)
		if end <= lo {
			start = end
			continue
		}
		js = js[max(lo, start)-start : min(hi, end)-start]
		start = end
		xi, yi, zi := x[i], y[i], z[i]
		for _, j := range js {
			dx := MinImageAxis(xi-x[j], box, h)
			dy := MinImageAxis(yi-y[j], box, h)
			dz := MinImageAxis(zi-z[j], box, h)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			v, f := lj.Pair(r2)
			pe += A(v)
			fx, fy, fz := A(dx*f), A(dy*f), A(dz*f)
			ax[i] += fx
			ay[i] += fy
			az[i] += fz
			ax[j] -= fx
			ay[j] -= fy
			az[j] -= fz
		}
	}
	return pe
}

// Neighbors returns the stored neighbor indices j > i for atom i, valid
// until the next Build. Callers must treat the slice as read-only; it
// aliases the list's internal storage.
func (nl *NeighborList[T]) Neighbors(i int) []int32 { return nl.pairs[i] }

// PairCount returns the number of stored pairs, a direct measure of how
// much work the list saves versus the N(N-1)/2 full scan.
func (nl *NeighborList[T]) PairCount() int {
	total := 0
	for _, js := range nl.pairs {
		total += len(js)
	}
	return total
}
