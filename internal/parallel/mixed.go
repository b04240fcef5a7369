package parallel

import (
	"context"

	"repro/internal/faults"
	"repro/internal/md"
	"repro/internal/vec"
)

// This file is the sharded mixed-precision fast path: float32 pair
// geometry, float64 accumulation (see internal/md/mixed.go for the
// precision contract). Unlike the native-width pairlist kernel —
// which shards the half-triangle pair sequence and therefore scatters
// into per-worker buffers whose reduction order depends on the worker
// count — the F32 kernel is written so that its output bytes are
// *independent* of the worker count:
//
//   - Forces gather: atoms are sharded by range, and each worker
//     computes its atoms' forces by gathering over the full neighbor
//     row (md.FullRows, ascending order fixed by the list alone).
//     Every acc[i] is written by exactly one worker with a summation
//     order that does not depend on where the shard boundaries fall.
//   - Energy reduces over atoms, not workers: each atom's float64
//     energy partial lands in a per-atom slot, and the total is a
//     fixed-shape pairwise tree (vec.PairwiseSum) whose association
//     depends only on N.
//
// TestForcesPairlistF32WorkersBitwise pins the property. The list
// build underneath (BuildPairlistF32) was already sharding-
// independent by construction.

// BuildPairlistF32 rebuilds a float32 neighbor list over the pool —
// the mixed-precision twin of BuildPairlist, sharing its build core,
// row-stride cancellation, disarmed-fault contract, and build mutex
// (so float32 and float64 builds on a shared engine serialize against
// each other).
func (e *Engine[T]) BuildPairlistF32(ctx context.Context, nl *md.NeighborList[float32], p md.Params[float32], pos md.Coords[float32]) error {
	return buildPairlist(e, ctx, nl, p, pos)
}

// TryForcesPairlistF32 evaluates LJ forces over a float32 neighbor
// list with atom-range sharding and full-row gather: pair geometry
// and the LJ evaluation run at float32, each atom's force and energy
// accumulate in float64 (each pair term widened exactly by
// vec.Widen), and the total energy is a fixed-shape float64 tree
// reduction over the per-atom partials. The list is rebuilt first if stale (sharded, bitwise
// sharding-independent). acc is overwritten; the return value is the
// float64 potential energy. Output bytes — acc and the energy — are
// identical for every worker count. A worker panic surfaces as an
// error; on error, acc is undefined.
func (e *Engine[T]) TryForcesPairlistF32(nl *md.NeighborList[float32], p md.Params[float32], pos md.Coords[float32], acc md.Coords[float64]) (float64, error) {
	if nl.Stale(p, pos) {
		if err := e.BuildPairlistF32(e.evalCtx(), nl, p, pos); err != nil {
			return 0, err
		}
	}
	e.full32.Sync(nl)
	n := pos.Len()
	if cap(e.pe64) < n {
		e.pe64 = make([]float64, n)
	}
	e.pe64 = e.pe64[:n]
	lj := md.NewLJTerms(p)
	rc2, box, h := p.Cutoff*p.Cutoff, p.Box, p.Box/2
	x, y, z := pos.X[:n], pos.Y[:n], pos.Z[:n]
	ax, ay, az := acc.X[:n], acc.Y[:n], acc.Z[:n]
	err := e.run(func(w int) {
		lo, hi := e.shardRange(n, w)
		for i := lo; i < hi; i++ {
			xi, yi, zi := x[i], y[i], z[i]
			var aix, aiy, aiz, pei float64
			for _, j := range e.full32.Row(i) {
				dx := md.MinImageAxis(xi-x[j], box, h)
				dy := md.MinImageAxis(yi-y[j], box, h)
				dz := md.MinImageAxis(zi-z[j], box, h)
				r2 := dx*dx + dy*dy + dz*dz
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				v, f := lj.Pair(r2)
				pei += vec.Widen(v)
				aix += vec.Widen(dx * f)
				aiy += vec.Widen(dy * f)
				aiz += vec.Widen(dz * f)
			}
			ax[i], ay[i], az[i] = aix, aiy, aiz
			e.pe64[i] = pei
		}
	})
	if err != nil {
		return 0, err
	}
	if f := faults.Fire(e.inj, faults.SiteParallelForces); f != nil {
		faults.CorruptPlane(f.Kind, acc.X)
	}
	// The gather visits each pair from both sides, so the tree-reduced
	// per-atom energies double-count every pair.
	return vec.PairwiseSum(e.pe64) / 2, nil
}
