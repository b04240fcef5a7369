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
func LJPair[T vec.Float](p Params[T], r2 T) (v, f T) {
	eps, sig := p.Epsilon1(), p.Sigma1()
	sr2 := sig * sig / r2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	v = 4 * eps * (sr12 - sr6)
	f = 24 * eps * (2*sr12 - sr6) / r2
	if p.Shifted {
		v -= ljShift(p)
	}
	return v, f
}

// ljShift returns V(r_c) for the unshifted potential.
func ljShift[T vec.Float](p Params[T]) T {
	eps, sig := p.Epsilon1(), p.Sigma1()
	sr2 := sig * sig / (p.Cutoff * p.Cutoff)
	sr6 := sr2 * sr2 * sr2
	return 4 * eps * (sr6*sr6 - sr6)
}

// MinImage returns the minimum-image displacement of d in a cubic
// periodic box, using the branch form ("if" test per axis): the
// formulation the paper's original SPE kernel uses before the copysign
// optimization. d must be a difference of wrapped coordinates, i.e.
// each component in (-box, box).
func MinImage[T vec.Float](d vec.V3[T], box T) vec.V3[T] {
	h := box / 2
	if d.X > h {
		d.X -= box
	} else if d.X < -h {
		d.X += box
	}
	if d.Y > h {
		d.Y -= box
	} else if d.Y < -h {
		d.Y += box
	}
	if d.Z > h {
		d.Z -= box
	} else if d.Z < -h {
		d.Z += box
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
	rc2 := p.Cutoff * p.Cutoff
	var pe T
	n := pos.Len()
	for i := 0; i < n; i++ {
		pi := pos.At(i)
		for j := i + 1; j < n; j++ {
			d := MinImage(pi.Sub(pos.At(j)), p.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			v, f := LJPair(p, r2)
			pe += v
			fd := d.Scale(f)
			acc.Add(i, fd)
			acc.Sub(j, fd)
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
	rc2 := p.Cutoff * p.Cutoff
	n := pos.Len()
	for i := lo; i < hi; i++ {
		pi := pos.At(i)
		var ai vec.V3[T]
		var pei T
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := MinImage(pi.Sub(pos.At(j)), p.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			pairs++
			v, f := LJPair(p, r2)
			pei += v
			ai = ai.Add(d.Scale(f))
		}
		acc.Set(i, ai)
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
