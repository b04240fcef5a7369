package md

import "repro/internal/vec"

// LJPair returns the Lennard-Jones pair quantities for a squared
// distance r2 under parameters p: the potential energy v and the scalar
// f such that the force on atom i from atom j is f * (r_i - r_j).
//
//	V(r)  = 4ε[(σ/r)¹² − (σ/r)⁶]          (− V(r_c) if Shifted)
//	f(r)  = 24ε[2(σ/r)¹² − (σ/r)⁶] / r²
//
// Callers are responsible for the cutoff test; LJPair assumes r2 > 0.
// Kernels build the LJTerms once per call instead.
func LJPair[T vec.Float](p Params[T], r2 T) (v, f T) {
	return NewLJTerms(p).Pair(r2)
}

// LJTerms holds the Lennard-Jones constants of Params that do not
// depend on the pair: σ², 4ε, 24ε and, for the shifted potential,
// V(r_c). A kernel builds it once per call, so its per-pair work is
// only the r²-dependent part of the formula. Pair performs the same
// operations in the same order as the formula written out in full, so
// hoisting the constants changes no result bit.
type LJTerms[T vec.Float] struct {
	Sig2, Eps4, Eps24 T
	Shift             T // V(r_c) of the unshifted potential; 0 unless Shifted
	Shifted           bool
}

// NewLJTerms derives the pair constants of p, applying the zero-value
// defaults of ε and σ.
func NewLJTerms[T vec.Float](p Params[T]) LJTerms[T] {
	eps, sig := p.Epsilon1(), p.Sigma1()
	lj := LJTerms[T]{Sig2: sig * sig, Eps4: 4 * eps, Eps24: 24 * eps}
	if p.Shifted {
		// Pair runs before Shifted is set, so this is the unshifted V(r_c).
		lj.Shift, _ = lj.Pair(p.Cutoff * p.Cutoff)
		lj.Shifted = true
	}
	return lj
}

// Pair returns LJPair's v and f for a squared distance r2 > 0. It is
// the one pair body every host kernel inlines.
func (lj LJTerms[T]) Pair(r2 T) (v, f T) {
	sr2 := lj.Sig2 / r2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	v = lj.Eps4 * (sr12 - sr6)
	f = lj.Eps24 * (2*sr12 - sr6) / r2
	if lj.Shifted {
		v -= lj.Shift
	}
	return v, f
}

// MinImage returns the minimum-image displacement of d in a cubic
// periodic box, using the branch form ("if" test per axis): the
// formulation the paper's original SPE kernel uses before the copysign
// optimization. d must be a difference of wrapped coordinates, i.e.
// each component in (-box, box).
func MinImage[T vec.Float](d vec.V3[T], box T) vec.V3[T] {
	h := box / 2
	d.X = MinImageAxis(d.X, box, h)
	d.Y = MinImageAxis(d.Y, box, h)
	d.Z = MinImageAxis(d.Z, box, h)
	return d
}

// MinImageAxis is MinImage along one axis: d in (-box, box) folded
// into [-h, h], where h is box/2. The kernels call it on their plane
// differences directly.
func MinImageAxis[T vec.Float](d, box, h T) T {
	if d > h {
		return d - box
	} else if d < -h {
		return d + box
	}
	return d
}

// MinImageCopysign returns the minimum-image displacement using the
// branch-free copysign form the paper substitutes on the SPE ("replace
// 'if' with 'copysign'", Figure 5). Same precondition as MinImage.
func MinImageCopysign[T vec.Float](d vec.V3[T], box T) vec.V3[T] {
	h := box / 2
	// step(|d|-h) * copysign(box, d): subtract a full box with the sign
	// of d whenever |d| exceeds half the box, without data-dependent
	// control flow on the value of d itself.
	d.X -= vec.Copysign(box, d.X) * step(vec.Abs(d.X)-h)
	d.Y -= vec.Copysign(box, d.Y) * step(vec.Abs(d.Y)-h)
	d.Z -= vec.Copysign(box, d.Z) * step(vec.Abs(d.Z)-h)
	return d
}

// step returns 1 if x > 0 and 0 otherwise (the Heaviside step used to
// build branch-free selects).
func step[T vec.Float](x T) T {
	if x > 0 {
		return 1
	}
	return 0
}

// MinImage27 returns the minimum-image displacement by explicitly
// searching the 27 neighboring unit cells for the closest instance of
// the pair — the exhaustive formulation the paper describes as "one
// expensive part of this acceleration computation" (section 5.1). It is
// valid for any d with components in (-box, box) and is the oracle the
// cheaper forms are property-tested against.
func MinImage27[T vec.Float](d vec.V3[T], box T) vec.V3[T] {
	best := d
	best2 := d.Norm2()
	for sx := -1; sx <= 1; sx++ {
		for sy := -1; sy <= 1; sy++ {
			for sz := -1; sz <= 1; sz++ {
				c := vec.V3[T]{
					X: d.X + T(sx)*box,
					Y: d.Y + T(sy)*box,
					Z: d.Z + T(sz)*box,
				}
				if r2 := c.Norm2(); r2 < best2 {
					best, best2 = c, r2
				}
			}
		}
	}
	return best
}

// ComputeForces evaluates the reference force kernel: for each atom,
// scan all other atoms, form the on-the-fly minimum-image distance, and
// accumulate the Lennard-Jones acceleration for pairs inside the
// cutoff. acc is overwritten; the return value is the total potential
// energy. This is the double loop every device in the paper offloads.
func ComputeForces[T vec.Float](p Params[T], pos Coords[T], acc Coords[T]) T {
	acc.Zero()
	lj := NewLJTerms(p)
	rc2, box, h := p.Cutoff*p.Cutoff, p.Box, p.Box/2
	n := pos.Len()
	x, y, z := pos.X[:n], pos.Y[:n], pos.Z[:n]
	ax, ay, az := acc.X[:n], acc.Y[:n], acc.Z[:n]
	var pe T
	for i := 0; i < n; i++ {
		xi, yi, zi := x[i], y[i], z[i]
		for j := i + 1; j < n; j++ {
			dx := MinImageAxis(xi-x[j], box, h)
			dy := MinImageAxis(yi-y[j], box, h)
			dz := MinImageAxis(zi-z[j], box, h)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			v, f := lj.Pair(r2)
			pe += v
			fx, fy, fz := dx*f, dy*f, dz*f
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

// ComputeForcesFullCount is ComputeForcesFull plus a count of the
// ordered interacting pairs (i,j) it found inside the cutoff. Device
// models use the count to scale the data-dependent part of their cycle
// ledgers without a second pass over the pairs.
func ComputeForcesFullCount[T vec.Float](p Params[T], pos Coords[T], acc Coords[T]) (pe T, interacting int64) {
	pe, interacting = ForcesFullRows(p, pos, acc, 0, pos.Len())
	return pe / 2, interacting
}

// ForcesFullRows is the full-loop (gather-only) kernel over the atoms
// [lo, hi): each atom scans all N-1 others and its acceleration is
// written whole, so disjoint row ranges never touch the same element
// of acc. The energy it returns counts every pair twice, once from
// each side; pairs is the number of ordered interacting pairs found.
// ComputeForcesFullCount runs it over every row; the parallel engine
// runs it once per atom-range shard.
func ForcesFullRows[T vec.Float](p Params[T], pos, acc Coords[T], lo, hi int) (pe T, pairs int64) {
	lj := NewLJTerms(p)
	rc2, box, h := p.Cutoff*p.Cutoff, p.Box, p.Box/2
	n := pos.Len()
	x, y, z := pos.X[:n], pos.Y[:n], pos.Z[:n]
	ax, ay, az := acc.X[:n], acc.Y[:n], acc.Z[:n]
	for i := lo; i < hi; i++ {
		xi, yi, zi := x[i], y[i], z[i]
		var aix, aiy, aiz, pei T
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := MinImageAxis(xi-x[j], box, h)
			dy := MinImageAxis(yi-y[j], box, h)
			dz := MinImageAxis(zi-z[j], box, h)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			pairs++
			v, f := lj.Pair(r2)
			pei += v
			aix += dx * f
			aiy += dy * f
			aiz += dz * f
		}
		ax[i], ay[i], az[i] = aix, aiy, aiz
		pe += pei
	}
	return pe, pairs
}

// ComputeForcesFull evaluates the same kernel with the full N² loop
// (every atom scans all N-1 others, each pair visited twice) instead of
// the half-triangle loop. This is the data layout the GPU and the
// per-SPE partitions use, where atom i's acceleration must be computable
// independently of every other atom's. The two formulations agree to
// rounding; tests pin that down.
func ComputeForcesFull[T vec.Float](p Params[T], pos Coords[T], acc Coords[T]) T {
	pe, _ := ComputeForcesFullCount(p, pos, acc)
	return pe
}
