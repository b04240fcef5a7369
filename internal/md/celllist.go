package md

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// CellList is the linked-cell method: the box is divided into a grid of
// cells at least one cutoff wide, so an atom's interaction partners all
// lie in its own cell or the 26 neighbors. Force evaluation becomes
// O(N) at fixed density instead of O(N²).
//
// Like the neighbor pairlist, this is one of the standard optimizations
// the paper's kernel deliberately omits (its whole point is the
// irregular O(N²) access pattern); it lives here for the ablation
// benches and as the scalable path for the full-framework extensions
// the paper's conclusion anticipates.
//
// All scratch state is carved from two grow-once arenas (one int32, one
// T), so a steady-state rebuild allocates nothing and the whole ledger
// cost of the cell path is the two arena makes below.
type CellList[T vec.Float] struct {
	dims  int // cells per box edge
	width T   // cell edge length (>= cutoff)
	box   T   // box edge the grid was sized for

	// Chain layout, built by Build for the force traversal.
	heads []int32 // heads[c] = first atom in cell c, -1 if empty
	next  []int32 // next[i] = next atom in i's cell, -1 at the end

	// Packed (CSR) layout, built by BinWrapped for the neighbor-list
	// gather: order holds atom indices grouped by cell (ascending within
	// each cell), packed the corresponding positions copied alongside as
	// SoA planes, and starts[c]..starts[c+1] delimits cell c's run.
	// Streaming these contiguous runs beats chasing the head/next chains
	// — each chain step is a dependent load — by a wide margin in the
	// build's inner loop.
	starts []int32
	order  []int32
	packed Coords[T]
	cursor []int32 // counting-sort scratch
	cellOf []int32 // counting-sort scratch: each atom's cell, one fold per atom

	chainInts []int32 // arena behind heads+next
	csrInts   []int32 // arena behind starts+cursor+order+cellOf
	csrPos    []T     // arena behind packed

	builds int
}

// NewCellList sizes a grid for the given box and cutoff. It fails when
// the box cannot hold a 3x3x3 grid of cutoff-wide cells (at that point
// the direct method is both required and cheap).
func NewCellList[T vec.Float](box, cutoff T) (*CellList[T], error) {
	if box <= 0 || cutoff <= 0 {
		return nil, fmt.Errorf("md: cell list needs positive box and cutoff, got %v, %v", box, cutoff)
	}
	dims := int(box / cutoff)
	if dims < 3 {
		return nil, fmt.Errorf("md: box %v holds only %d cutoff-wide cells per edge; need >= 3", box, dims)
	}
	return &CellList[T]{
		dims:  dims,
		width: box / T(dims),
		box:   box,
	}, nil
}

// reinit re-geometries the grid in place, keeping every arena. The
// caller must guarantee box > 0 and dims >= 3 (the neighbor-list
// builder's buildGridDims does); that precondition is what lets the
// hot path skip the erroring constructor.
func (cl *CellList[T]) reinit(box T, dims int) {
	if cl.box == box && cl.dims == dims {
		return
	}
	cl.dims = dims
	cl.width = box / T(dims)
	cl.box = box
}

// Dims returns the grid dimension per edge.
func (cl *CellList[T]) Dims() int { return cl.dims }

// Builds returns how many times the grid has been rebuilt.
func (cl *CellList[T]) Builds() int { return cl.builds }

// cellIndex maps a wrapped position to its cell.
func (cl *CellList[T]) cellIndex(p vec.V3[T]) int {
	return (cl.axisCell(p.X)*cl.dims+cl.axisCell(p.Y))*cl.dims + cl.axisCell(p.Z)
}

// axisCell maps one wrapped coordinate to its cell along an axis.
// Positions exactly at the box edge (x == box after rounding) land one
// past the last cell, and positions perturbed just below 0 (x == -0.0,
// or a wrap that rounds to a tiny negative) would truncate toward zero
// or go negative; clamp both ends so any representable coordinate maps
// to a valid cell.
func (cl *CellList[T]) axisCell(x T) int {
	c := int(x / cl.width)
	if c < 0 {
		return 0
	}
	if c >= cl.dims {
		return cl.dims - 1
	}
	return c
}

// NumCells returns the total number of cells in the grid.
func (cl *CellList[T]) NumCells() int { return cl.dims * cl.dims * cl.dims }

// Head returns the first atom in cell c, or -1 if the cell is empty.
// Valid after Build.
func (cl *CellList[T]) Head(c int) int32 { return cl.heads[c] }

// Next returns the atom after i in i's cell chain, or -1 at the end.
// Valid after Build.
func (cl *CellList[T]) Next(i int32) int32 { return cl.next[i] }

// NeighborCells writes cell c itself followed by its 26 periodic
// neighbors into buf (which must have length >= 27) and returns the
// filled slice. This full-shell enumeration is the gather-only
// traversal parallel cell sharding needs: every cell can compute its
// own atoms' forces without writing to any other cell's atoms.
func (cl *CellList[T]) NeighborCells(c int, buf []int) []int {
	d := cl.dims
	cz := c % d
	cy := (c / d) % d
	cx := c / (d * d)
	buf = buf[:0]
	buf = append(buf, c)
	for ox := -1; ox <= 1; ox++ {
		for oy := -1; oy <= 1; oy++ {
			for oz := -1; oz <= 1; oz++ {
				if ox == 0 && oy == 0 && oz == 0 {
					continue
				}
				buf = append(buf, cl.wrapCell(cx+ox, cy+oy, cz+oz))
			}
		}
	}
	return buf
}

// foldCoord folds one coordinate into [0, box) for binning. Unlike
// Wrap it is total: a coordinate that is already in range (every real
// caller) takes the fast path, out-of-range finite values fold by one
// modulo step, and non-finite values come back 0 instead of looping —
// a hostile position may land in the wrong cell (and so miss pairs the
// reference scan would also score as non-finite), but it can never
// hang or index out of bounds. box must be positive.
func foldCoord[T vec.Float](x, box T) T {
	if x >= 0 && x < box {
		return x
	}
	x = T(math.Mod(float64(x), float64(box)))
	if x < 0 {
		x += box
	}
	if !(x >= 0 && x < box) { // NaN from Inf inputs, or x+box rounding to box
		return 0
	}
	return x
}

// CellOfWrapped returns the cell BinWrapped assigns to position p —
// the lookup the neighbor-list row builder uses to find an atom's home
// cell without storing a per-atom cell table.
func (cl *CellList[T]) CellOfWrapped(p vec.V3[T]) int {
	return (cl.axisCell(foldCoord(p.X, cl.box))*cl.dims+
		cl.axisCell(foldCoord(p.Y, cl.box)))*cl.dims +
		cl.axisCell(foldCoord(p.Z, cl.box))
}

// ensureCSR carves the counting-sort buffers for n atoms and ncells
// cells out of the two CSR arenas, growing them only when capacity is
// exceeded. noinline keeps each arena make a single ledger site rather
// than one per inlined caller.
//
//go:noinline
func (cl *CellList[T]) ensureCSR(n, ncells int) {
	need := (ncells + 1) + ncells + n + n
	if cap(cl.csrInts) < need {
		cl.csrInts = make([]int32, need) //mdlint:ignore hotalloc amortized grow-once CSR arena, reused while capacity suffices
	}
	b := cl.csrInts[:need]
	cl.starts = b[0 : ncells+1 : ncells+1]
	b = b[ncells+1:]
	cl.cursor = b[0:ncells:ncells]
	b = b[ncells:]
	cl.order = b[0:n:n]
	cl.cellOf = b[n : 2*n : 2*n]
	if cap(cl.csrPos) < 3*n {
		cl.csrPos = make([]T, 3*n) //mdlint:ignore hotalloc amortized grow-once packed-position arena, reused while capacity suffices
	}
	cl.packed = coordsOver(cl.csrPos[:3*n], n)
}

// BinWrapped rebuilds the packed cell layout, folding each coordinate
// into [0, box) first. The force-path Build assumes pre-wrapped
// positions and clamps strays into edge cells; the neighbor-list build
// uses this folding variant instead so that an unwrapped (or
// adversarial) input still bins every atom into the cell its minimum
// image lives in. Binning is a counting sort — count, prefix-sum,
// scatter — so order stays ascending within every cell and the whole
// pass is O(N + cells).
func (cl *CellList[T]) BinWrapped(pos Coords[T]) {
	n := pos.Len()
	ncells := cl.dims * cl.dims * cl.dims
	cl.ensureCSR(n, ncells)
	for c := range cl.cursor {
		cl.cursor[c] = 0
	}

	for i := 0; i < n; i++ {
		c := cl.CellOfWrapped(pos.At(i))
		cl.cellOf[i] = int32(c)
		cl.cursor[c]++
	}
	cl.starts[0] = 0
	for c := 0; c < ncells; c++ {
		cl.starts[c+1] = cl.starts[c] + cl.cursor[c]
		cl.cursor[c] = cl.starts[c]
	}
	for i := 0; i < n; i++ {
		c := cl.cellOf[i]
		k := cl.cursor[c]
		cl.cursor[c] = k + 1
		cl.order[k] = int32(i)
		cl.packed.Set(int(k), pos.At(i))
	}
	cl.builds++
}

// CellSpan returns the half-open range of cell c's run in the packed
// layout. Valid after BinWrapped.
func (cl *CellList[T]) CellSpan(c int) (lo, hi int32) {
	return cl.starts[c], cl.starts[c+1]
}

// ensureChains carves the head/next arrays out of the chain arena.
// noinline for the same single-ledger-site reason as ensureCSR.
//
//go:noinline
func (cl *CellList[T]) ensureChains(n, ncells int) {
	need := ncells + n
	if cap(cl.chainInts) < need {
		cl.chainInts = make([]int32, need) //mdlint:ignore hotalloc amortized grow-once chain arena, reused while capacity suffices
	}
	b := cl.chainInts[:need]
	cl.heads = b[0:ncells:ncells]
	cl.next = b[ncells : ncells+n : ncells+n]
}

// resetChains sizes and clears the head/next arrays for n atoms.
func (cl *CellList[T]) resetChains(n int) {
	cl.ensureChains(n, cl.dims*cl.dims*cl.dims)
	for i := range cl.heads {
		cl.heads[i] = -1
	}
}

// Build rebuilds the linked cells from the wrapped positions.
func (cl *CellList[T]) Build(pos Coords[T]) {
	cl.resetChains(pos.Len())
	for i := 0; i < pos.Len(); i++ {
		c := cl.cellIndex(pos.At(i))
		cl.next[i] = cl.heads[c]
		cl.heads[c] = int32(i)
	}
	cl.builds++
}

// Forces evaluates the LJ forces using the cell grid, rebuilding it
// from the current positions first (a rebuild is O(N) and must track
// every step). acc is overwritten; the return value is the potential
// energy. Results match ComputeForces to rounding.
func (cl *CellList[T]) Forces(p Params[T], pos Coords[T], acc Coords[T]) T {
	cl.Build(pos)
	acc.Zero()
	return cellForces(cl, p, pos, acc)
}

// cellForces is the half-shell linked-cell kernel over a built grid:
// each atom meets the later atoms of its own cell and every atom of 13
// of its 26 neighbor cells, so each unordered pair is visited once and
// both of its atoms are updated. Geometry runs at the grid's width T
// and accumulation at width A, as in ForcesPairRange; acc is
// accumulated into, not cleared.
func cellForces[T, A vec.Float](cl *CellList[T], p Params[T], pos Coords[T], acc Coords[A]) A {
	lj := NewLJTerms(p)
	rc2, box, h := p.Cutoff*p.Cutoff, p.Box, p.Box/2
	n := pos.Len()
	x, y, z := pos.X[:n], pos.Y[:n], pos.Z[:n]
	ax, ay, az := acc.X[:n], acc.Y[:n], acc.Z[:n]
	heads, next := cl.heads, cl.next[:n]
	var pe A
	var nbr [len(halfNeighborOffsets)]int32 // heads of the 13 half-shell cells
	d := cl.dims
	for cx := 0; cx < d; cx++ {
		for cy := 0; cy < d; cy++ {
			for cz := 0; cz < d; cz++ {
				c := (cx*d+cy)*d + cz
				if heads[c] < 0 {
					continue
				}
				for k, off := range halfNeighborOffsets {
					nbr[k] = heads[cl.wrapCell(cx+off[0], cy+off[1], cz+off[2])]
				}
				for i := heads[c]; i >= 0; i = next[i] {
					xi, yi, zi := x[i], y[i], z[i]
					// The later atoms of the home cell, then every atom
					// of each half-shell cell, in that order.
					j := next[i]
					for k := -1; k < len(nbr); k++ {
						if k >= 0 {
							j = nbr[k]
						}
						for ; j >= 0; j = next[j] {
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
				}
			}
		}
	}
	return pe
}

// wrapCell folds a (possibly negative or overflowing) cell coordinate
// back into the periodic grid.
func (cl *CellList[T]) wrapCell(cx, cy, cz int) int {
	d := cl.dims
	cx = (cx%d + d) % d
	cy = (cy%d + d) % d
	cz = (cz%d + d) % d
	return (cx*d+cy)*d + cz
}

// halfNeighborOffsets lists 13 of the 26 neighbor-cell offsets such
// that every unordered pair of adjacent cells appears exactly once
// (the standard half-shell enumeration).
var halfNeighborOffsets = [13][3]int{
	{1, 0, 0},
	{1, 1, 0}, {0, 1, 0}, {-1, 1, 0},
	{1, 0, 1}, {0, 0, 1}, {-1, 0, 1},
	{1, 1, 1}, {0, 1, 1}, {-1, 1, 1},
	{1, -1, 1}, {0, -1, 1}, {-1, -1, 1},
}
