package md

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestNeighborListRejectsBadSkin(t *testing.T) {
	if _, err := NewNeighborList[float64](0); err == nil {
		t.Fatal("accepted zero skin")
	}
	if _, err := NewNeighborList[float64](-0.5); err == nil {
		t.Fatal("accepted negative skin")
	}
}

func TestNeighborListMatchesReference(t *testing.T) {
	s := makeSystem(t, 108, false)
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	accRef := MakeCoords[float64](s.N())
	accNL := MakeCoords[float64](s.N())
	peRef := ComputeForces(s.P, s.Pos, accRef)
	peNL := nl.Forces(s.P, s.Pos, accNL)
	if math.Abs(peRef-peNL) > 1e-10*(1+math.Abs(peRef)) {
		t.Fatalf("PE mismatch: ref %v, pairlist %v", peRef, peNL)
	}
	for i := 0; i < accRef.Len(); i++ {
		if accRef.At(i).Sub(accNL.At(i)).Norm() > 1e-9*(1+accRef.At(i).Norm()) {
			t.Fatalf("acc mismatch at %d: %+v vs %+v", i, accRef.At(i), accNL.At(i))
		}
	}
}

func TestNeighborListTrajectoryMatches(t *testing.T) {
	// Integrating with the pairlist must reproduce the reference
	// trajectory (the list only skips provably non-interacting pairs).
	ref := makeSystem(t, 64, false)
	opt := ref.Clone()
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 50
	for i := 0; i < steps; i++ {
		ref.Step()
		opt.StepWith(func() float64 { return nl.Forces(opt.P, opt.Pos, opt.Acc) })
	}
	for i := 0; i < ref.N(); i++ {
		if d := ref.Pos.At(i).Sub(opt.Pos.At(i)).Norm(); d > 1e-9 {
			t.Fatalf("trajectories diverged at atom %d by %v", i, d)
		}
	}
	if nl.Builds() >= nl.Queries() {
		t.Fatalf("pairlist rebuilt on every query (%d builds / %d queries); skin logic broken",
			nl.Builds(), nl.Queries())
	}
}

func TestNeighborListStaleness(t *testing.T) {
	s := makeSystem(t, 32, false)
	nl, err := NewNeighborList[float64](0.5)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(s.P, s.Pos)
	if nl.Stale(s.P, s.Pos) {
		t.Fatal("fresh list reported stale")
	}
	// Move one atom just under the threshold: still fresh.
	moved := MakeCoords[float64](s.N())
	moved.CopyFrom(s.Pos)
	moved.Set(3, Wrap(moved.At(3).Add(vec.V3[float64]{X: 0.24}), s.P.Box))
	if nl.Stale(s.P, moved) {
		t.Fatal("list stale after sub-threshold move")
	}
	// Past skin/2: stale.
	moved.Set(3, Wrap(s.Pos.At(3).Add(vec.V3[float64]{X: 0.26}), s.P.Box))
	if !nl.Stale(s.P, moved) {
		t.Fatal("list not stale after super-threshold move")
	}
}

func TestNeighborListStaleOnResize(t *testing.T) {
	s := makeSystem(t, 32, false)
	nl, err := NewNeighborList[float64](0.5)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(s.P, s.Pos)
	half := Coords[float64]{X: s.Pos.X[:16], Y: s.Pos.Y[:16], Z: s.Pos.Z[:16]}
	if !nl.Stale(s.P, half) {
		t.Fatal("list not stale after atom-count change")
	}
}

func TestNeighborListPairCount(t *testing.T) {
	s := makeSystem(t, 108, false)
	nl, err := NewNeighborList[float64](0.3)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(s.P, s.Pos)
	full := s.N() * (s.N() - 1) / 2
	got := nl.PairCount()
	if got <= 0 || got >= full {
		t.Fatalf("pair count %d not in (0, %d); list prunes nothing", got, full)
	}
}

// sparseLine is a 5-atom system whose half list holds exactly three
// pairs, (0,1), (1,3) and (3,4), so rows 2 and 4 are empty: atom 2
// sits far off the line and nothing follows atom 4.
func sparseLine() (Params[float64], Coords[float64]) {
	p := Params[float64]{Box: 10, Cutoff: 2.5, Dt: 0.004}
	pos := CoordsFromV3([]vec.V3[float64]{
		{X: 1, Y: 1, Z: 1}, {X: 3, Y: 1, Z: 1}, {X: 5, Y: 6, Z: 6},
		{X: 5, Y: 1, Z: 1}, {X: 7, Y: 1, Z: 1},
	})
	return p, pos
}

// rowStarts returns the flattened index of each row's first pair,
// plus the total pair count as a final entry.
func rowStarts[T vec.Float](nl *NeighborList[T]) []int {
	starts := []int{0}
	for _, js := range nl.pairs {
		starts = append(starts, starts[len(starts)-1]+len(js))
	}
	return starts
}

// TestForcesPairRangePartitions runs the pair-range kernel over
// partitions of [0, total) whose cuts fall mid-row, on row
// boundaries, around empty rows and on top of each other (empty
// ranges); every partition must sum to NeighborList.Forces.
func TestForcesPairRangePartitions(t *testing.T) {
	s := makeSystem(t, 108, false)
	lp, lpos := sparseLine()
	for _, tc := range []struct {
		name string
		p    Params[float64]
		pos  Coords[float64]
	}{{"lattice108", s.P, s.Pos}, {"sparse-line", lp, lpos}} {
		nl, err := NewNeighborList[float64](0.4)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.pos.Len()
		accRef := MakeCoords[float64](n)
		peRef := nl.Forces(tc.p, tc.pos, accRef)
		starts := rowStarts(nl)
		total := starts[len(starts)-1]
		if total == 0 {
			t.Fatalf("%s: empty list", tc.name)
		}
		if tc.name == "sparse-line" && (total != 3 || len(nl.Neighbors(2)) != 0) {
			t.Fatalf("sparse-line: %d pairs, row 2 = %v; want 3 pairs and an empty row 2", total, nl.Neighbors(2))
		}

		// Cuts: every pair on its own (each range starts and ends
		// mid-row), every row boundary (empty rows give repeated
		// cuts), and a few arbitrary interior points with duplicates.
		singles := make([]int, total+1)
		for k := range singles {
			singles[k] = k
		}
		partitions := map[string][]int{
			"singles":    singles,
			"rows":       starts,
			"mixed":      {0, 0, 1, total / 3, total / 3, total/2 + 1, total - 1, total, total},
			"whole":      {0, total},
			"empty-head": {0, 0, 0, total},
		}
		for pname, cuts := range partitions {
			acc := MakeCoords[float64](n)
			var pe float64
			for k := 0; k+1 < len(cuts); k++ {
				pe += ForcesPairRange(nl, tc.p, tc.pos, acc, cuts[k], cuts[k+1])
			}
			if math.Abs(pe-peRef) > 1e-12*math.Abs(peRef) {
				t.Errorf("%s/%s: PE %v, want %v", tc.name, pname, pe, peRef)
			}
			for i := 0; i < n; i++ {
				if d := acc.At(i).Sub(accRef.At(i)).Norm(); d > 1e-12*(1+accRef.At(i).Norm()) {
					t.Fatalf("%s/%s: acc[%d] = %+v, want %+v", tc.name, pname, i, acc.At(i), accRef.At(i))
				}
			}
		}

		// An empty range at any position returns zero and leaves acc
		// bitwise untouched.
		acc := MakeCoords[float64](n)
		for i := 0; i < n; i++ {
			acc.Set(i, vec.V3[float64]{X: float64(i) + 0.25, Y: -1, Z: math.Pi})
		}
		want := acc.V3s()
		for _, at := range []int{0, 1, total / 2, total} {
			if pe := ForcesPairRange(nl, tc.p, tc.pos, acc, at, at); pe != 0 {
				t.Errorf("%s: empty range at %d returned PE %v", tc.name, at, pe)
			}
		}
		for i, w := range want {
			if acc.At(i) != w {
				t.Fatalf("%s: empty range wrote acc[%d]: %+v, want %+v", tc.name, i, acc.At(i), w)
			}
		}
	}
}
