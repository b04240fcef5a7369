package md

import (
	"fmt"
	"slices"

	"repro/internal/vec"
)

// Observables: the analysis quantities a downstream user of a
// bio-molecular framework actually wants from a trajectory — radial
// distribution function, mean-square displacement, and the virial
// pressure. All operate in float64 (analysis precision) regardless of
// the simulation precision.

// RDF accumulates the radial distribution function g(r) from snapshots.
type RDF struct {
	box    float64
	rMax   float64
	bins   []int64
	frames int
	atoms  int
}

// NewRDF builds an accumulator with the given bin count up to rMax
// (which must respect the minimum-image limit box/2).
func NewRDF(box, rMax float64, bins int) (*RDF, error) {
	if box <= 0 || rMax <= 0 || bins <= 0 {
		return nil, fmt.Errorf("md: RDF needs positive box, rMax, bins")
	}
	if rMax > box/2 {
		return nil, fmt.Errorf("md: RDF rMax %v exceeds half the box %v", rMax, box/2)
	}
	return &RDF{box: box, rMax: rMax, bins: make([]int64, bins)}, nil
}

// Accumulate adds one snapshot (O(N²)).
func (r *RDF) Accumulate(pos Coords[float64]) {
	n := pos.Len()
	dr := r.rMax / float64(len(r.bins))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := MinImage(pos.At(i).Sub(pos.At(j)), r.box)
			dist := d.Norm()
			if dist < r.rMax {
				r.bins[int(dist/dr)] += 2 // both orderings
			}
		}
	}
	r.frames++
	r.atoms = n
}

// Frames returns the number of accumulated snapshots.
func (r *RDF) Frames() int { return r.frames }

// Result returns the bin centers and the normalized g(r): counts
// divided by the ideal-gas expectation for each shell.
func (r *RDF) Result() (centers, g []float64) {
	nb := len(r.bins)
	centers = make([]float64, nb)
	g = make([]float64, nb)
	if r.frames == 0 || r.atoms == 0 {
		return centers, g
	}
	dr := r.rMax / float64(nb)
	vol := r.box * r.box * r.box
	density := float64(r.atoms) / vol
	for b := 0; b < nb; b++ {
		rLo := float64(b) * dr
		rHi := rLo + dr
		centers[b] = (rLo + rHi) / 2
		shellVol := 4 * pi / 3 * (rHi*rHi*rHi - rLo*rLo*rLo)
		ideal := density * shellVol * float64(r.atoms) * float64(r.frames)
		if ideal > 0 {
			g[b] = float64(r.bins[b]) / ideal
		}
	}
	return centers, g
}

const pi = 3.141592653589793

// MSD tracks mean-square displacement from a reference configuration,
// using unwrapped trajectories: Track must be fed every step so that
// boundary crossings can be counted.
type MSD struct {
	box     float64
	origin  []vec.V3[float64]
	prev    []vec.V3[float64]
	images  []vec.V3[float64] // accumulated box crossings per atom
	tracked int
}

// NewMSD starts tracking from the given configuration.
func NewMSD(box float64, pos Coords[float64]) *MSD {
	m := &MSD{
		box:    box,
		origin: pos.V3s(),
		prev:   pos.V3s(),
		images: make([]vec.V3[float64], pos.Len()),
	}
	return m
}

// Track records the next wrapped snapshot, inferring boundary
// crossings from per-step displacements (valid while no atom moves
// more than half a box per step — guaranteed at sane time steps).
func (m *MSD) Track(pos Coords[float64]) error {
	if pos.Len() != len(m.prev) {
		return fmt.Errorf("md: MSD fed %d atoms, tracking %d", pos.Len(), len(m.prev))
	}
	for i := range m.prev {
		p := pos.At(i)
		d := p.Sub(m.prev[i])
		m.images[i] = m.images[i].Add(crossings(d, m.box))
		m.prev[i] = p
	}
	m.tracked++
	return nil
}

// crossings counts the box crossings implied by a wrapped displacement.
func crossings(d vec.V3[float64], box float64) vec.V3[float64] {
	h := box / 2
	var c vec.V3[float64]
	if d.X > h {
		c.X = -1
	} else if d.X < -h {
		c.X = 1
	}
	if d.Y > h {
		c.Y = -1
	} else if d.Y < -h {
		c.Y = 1
	}
	if d.Z > h {
		c.Z = -1
	} else if d.Z < -h {
		c.Z = 1
	}
	return c
}

// Value returns the current mean-square displacement.
func (m *MSD) Value() float64 {
	var sum float64
	for i := range m.prev {
		unwrapped := m.prev[i].Add(m.images[i].Scale(m.box))
		sum += unwrapped.Sub(m.origin[i]).Norm2()
	}
	return sum / float64(len(m.prev))
}

// Virial computes the instantaneous virial sum W = Σ_pairs f·r and the
// corresponding pressure P = (N k T + W/3) / V for the LJ system. It is
// the O(N²) reference scan: pairs i < j in ascending (i, j) order. The
// run layers evaluate it through VirialScratch, which adds the same
// terms in the same order in O(N); Virial stays as the oracle.
func Virial(p Params[float64], pos Coords[float64]) float64 {
	return virialN2(p, pos)
}

// virialN2 is Virial at any width: the fallback VirialScratch shares
// with the oracle.
func virialN2[T vec.Float](p Params[T], pos Coords[T]) T {
	lj := NewLJTerms(p)
	rc2 := p.Cutoff * p.Cutoff
	var w T
	n := pos.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := MinImage(pos.At(i).Sub(pos.At(j)), p.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			_, f := lj.Pair(r2)
			w += f * r2 // f*(r vector)·(r vector) = f*r²
		}
	}
	return w
}

// Pressure returns the instantaneous pressure from the virial theorem
// (unit masses, k_B = 1).
func Pressure(p Params[float64], pos Coords[float64], temperature float64) float64 {
	return pressureOf(p, pos.Len(), temperature, Virial(p, pos))
}

// pressureOf turns a virial sum over n atoms into a pressure.
func pressureOf[T vec.Float](p Params[T], n int, temperature, w T) T {
	vol := p.Box * p.Box * p.Box
	return (T(n)*temperature + w/3) / vol
}

// VirialScratch evaluates Virial and Pressure in O(N) at fixed density
// and returns the same bits. It bins atoms into a cell grid whose cells
// are at least r_c wide, so every partner j > i within r_c of atom i
// lies in i's cell or one of its 26 neighbors. For each i it gathers
// those partners, sorts them ascending, and adds f·r² in that order:
// exactly the terms, and the addition sequence, of Virial's scan.
// Boxes too small for a 3×3×3 grid, and positions outside [-box, 2·box)
// or non-finite, take the O(N²) scan itself.
//
// The grid's arenas and the one row buffer grow once and are reused,
// so repeated evaluations at a fixed atom count allocate nothing. The
// zero value is ready to use. A VirialScratch is not safe for
// concurrent use.
type VirialScratch[T vec.Float] struct {
	grid CellList[T]
	row  []int32
}

// virialCellMargin widens the virial grid's cells by a relative hair
// over r_c. Folding and binning round each coordinate by a few ulps of
// the box; with at most maxBuildGridDims cells per edge that is far
// below 2^-20 of a cell, so a pair inside r_c can never land in
// non-adjacent cells.
const virialCellMargin = 1 + 0x1p-20

// Virial returns Virial(p, pos) bit for bit.
func (vs *VirialScratch[T]) Virial(p Params[T], pos Coords[T]) T {
	n := pos.Len()
	dims := buildGridDims(p.Box, p.Cutoff*virialCellMargin, n)
	if dims == 0 || !inFoldRange(pos, p.Box) {
		return virialN2(p, pos)
	}
	grid := &vs.grid
	grid.reinit(p.Box, dims)
	grid.BinWrapped(pos)
	order, packed := grid.order, grid.packed
	lj := NewLJTerms(p)
	rc2 := p.Cutoff * p.Cutoff
	var w T
	var cellbuf [27]int
	for i := 0; i < n; i++ {
		pi := pos.At(i)
		row := vs.row[:0]
		for _, c := range grid.NeighborCells(grid.CellOfWrapped(pi), cellbuf[:]) {
			lo, hi := grid.CellSpan(c)
			k := lo
			for k < hi && int(order[k]) <= i {
				k++
			}
			for ; k < hi; k++ {
				d := MinImage(pi.Sub(packed.At(int(k))), p.Box)
				if r2 := d.Norm2(); r2 < rc2 && r2 != 0 {
					row = append(row, order[k])
				}
			}
		}
		slices.Sort(row)
		for _, j := range row {
			d := MinImage(pi.Sub(pos.At(int(j))), p.Box)
			r2 := d.Norm2()
			_, f := lj.Pair(r2)
			w += f * r2
		}
		vs.row = row
	}
	return w
}

// Pressure returns Pressure(p, pos, temperature) bit for bit.
func (vs *VirialScratch[T]) Pressure(p Params[T], pos Coords[T], temperature T) T {
	return pressureOf(p, pos.Len(), temperature, vs.Virial(p, pos))
}

// inFoldRange reports whether every coordinate lies in [-box, 2·box).
// There foldCoord moves a coordinate by at most one box, exactly or
// within an ulp of the box, so a folded pair keeps its minimum-image
// distance. NaN and ±Inf fail the test.
func inFoldRange[T vec.Float](pos Coords[T], box T) bool {
	for _, plane := range [3][]T{pos.X, pos.Y, pos.Z} {
		for _, x := range plane {
			if !(x >= -box && x < 2*box) {
				return false
			}
		}
	}
	return true
}

// VACF accumulates the velocity autocorrelation function
// C(τ) = ⟨v(t)·v(t+τ)⟩ / ⟨v·v⟩ over a window of lags — the observable
// behind vibrational spectra and the Green-Kubo diffusion coefficient.
// Feed it every step with Track; Result returns the normalized
// correlation per lag.
type VACF struct {
	lags int
	ring [][]vec.V3[float64] // last `lags` velocity snapshots
	head int                 // next slot to overwrite
	seen int                 // snapshots tracked so far

	corr    []float64 // corr[l] = sum over samples of v(t)·v(t-l)
	samples []int64
}

// NewVACF builds an accumulator covering lags 0..maxLag-1.
func NewVACF(maxLag int) (*VACF, error) {
	if maxLag < 1 {
		return nil, fmt.Errorf("md: VACF needs at least one lag, got %d", maxLag)
	}
	return &VACF{
		lags:    maxLag,
		ring:    make([][]vec.V3[float64], maxLag),
		corr:    make([]float64, maxLag),
		samples: make([]int64, maxLag),
	}, nil
}

// Track records one velocity snapshot and accumulates all currently
// available lags.
func (v *VACF) Track(vel Coords[float64]) error {
	if v.seen > 0 && v.ring[(v.head+v.lags-1)%v.lags] != nil &&
		len(v.ring[(v.head+v.lags-1)%v.lags]) != vel.Len() {
		return fmt.Errorf("md: VACF fed %d atoms, tracking %d",
			vel.Len(), len(v.ring[(v.head+v.lags-1)%v.lags]))
	}
	snap := vel.V3s()
	v.ring[v.head] = snap
	v.head = (v.head + 1) % v.lags
	v.seen++

	avail := v.seen
	if avail > v.lags {
		avail = v.lags
	}
	for lag := 0; lag < avail; lag++ {
		idx := (v.head - 1 - lag + 2*v.lags) % v.lags
		old := v.ring[idx]
		var dot float64
		for i := range snap {
			dot += snap[i].Dot(old[i])
		}
		v.corr[lag] += dot / float64(len(snap))
		v.samples[lag]++
	}
	return nil
}

// Result returns C(τ) for τ = 0..maxLag-1, normalized so C(0) = 1.
// Lags never sampled are zero.
func (v *VACF) Result() []float64 {
	out := make([]float64, v.lags)
	if v.samples[0] == 0 {
		return out
	}
	c0 := v.corr[0] / float64(v.samples[0])
	if c0 == 0 {
		return out
	}
	for lag := range out {
		if v.samples[lag] > 0 {
			out[lag] = (v.corr[lag] / float64(v.samples[lag])) / c0
		}
	}
	return out
}
