package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"esse/internal/linalg"
	"esse/internal/rng"
)

// oracleSubspace is SubspaceFromAnomalies as it was before the tracker
// existed: one thin Gram SVD of the whole matrix with every mode formed,
// then the σ scaling and the relTol cut. The tracker must reproduce it
// bit for bit on every prefix.
func oracleSubspace(a *linalg.Dense, maxRank int, relTol float64) *Subspace {
	n := a.Cols
	if maxRank <= 0 || maxRank > n {
		maxRank = n
	}
	f := linalg.ThinSVDGram(a, maxRank)
	scale := 1 / math.Sqrt(float64(n-1))
	sig := make([]float64, 0, len(f.S))
	for _, s := range f.S {
		sig = append(sig, s*scale)
	}
	keep := len(sig)
	if relTol > 0 {
		keep = 0
		for _, s := range sig {
			if s > relTol*sig[0] {
				keep++
			}
		}
		keep = max(keep, 1)
	}
	return &Subspace{Modes: f.U.Slice(0, f.U.Rows, 0, keep), Sigma: sig[:keep]}
}

func randomDense(s *rng.Stream, m, n int) *linalg.Dense {
	a := linalg.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	return a
}

// memberIndices numbers n columns with gaps, as failed members leave them.
func memberIndices(n int) []int {
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j + j/5
	}
	return idx
}

func TestTrackerMatchesOracleOnEveryPrefix(t *testing.T) {
	const m, n, batch = 90, 40, 8
	s := rng.New(41)
	full := randomDense(s, m, n)
	// Rank 5 plus noise four orders below: relTol 1e-2 cuts the noise.
	lowRank := linalg.MulBT(randomDense(s, m, 5), randomDense(s, n, 5))
	for i, v := range randomDense(s, m, n).Data {
		lowRank.Data[i] += 1e-4 * v
	}
	// Exactly repeated and exactly zero members: null directions of A
	// whose modes are zero columns or noise, kept because relTol is 0.
	degenerate := full.Clone()
	col := make([]float64, m)
	for _, dup := range [][2]int{{3, 1}, {12, 1}, {30, 17}} {
		degenerate.SetCol(dup[0], degenerate.Col(col, dup[1]))
	}
	for _, zero := range []int{0, 9, 25} {
		degenerate.SetCol(zero, make([]float64, m))
	}

	cases := []struct {
		name    string
		a       *linalg.Dense
		maxRank int
		relTol  float64
	}{
		{"full rank", full, 0, 0},
		{"maxRank below n", full, 6, 1e-8},
		{"relTol truncation", lowRank, 0, 1e-2},
		{"duplicated and zero columns", degenerate, 0, 0},
		{"duplicated and zero columns, relTol", degenerate, 0, 1e-8},
		{"more members than state elements", randomDense(s, 20, n), 0, 1e-8},
	}
	crit := ConvergenceCriterion{MinSimilarity: 0.9, MaxVarianceChange: 0.2}
	indices := memberIndices(n)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewSubspaceTracker(tc.maxRank, tc.relTol)
			cols := tc.a.Columns()
			var prev *Subspace
			for k := batch; k <= n; k += batch {
				prefix := tc.a.Slice(0, tc.a.Rows, 0, k)
				if err := tr.Update(cols[:k], indices[:k]); err != nil {
					t.Fatal(err)
				}
				// The Gram matrix the columns were folded into is the one
				// MulTA forms from the whole prefix, bit for bit.
				if !slices.Equal(tr.gram.Data, linalg.MulTA(prefix, prefix).Data) {
					t.Fatalf("n=%d: column-fed Gram matrix differs from MulTA(A, A)", k)
				}
				want := oracleSubspace(prefix, tc.maxRank, tc.relTol)
				got, err := tr.Subspace(prefix)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Sigma, want.Sigma) {
					t.Fatalf("n=%d: Sigma = %v, oracle %v", k, got.Sigma, want.Sigma)
				}
				if !slices.Equal(got.Modes.Data, want.Modes.Data) {
					t.Fatalf("n=%d: Modes differ from the oracle bit for bit", k)
				}
				if oneShot := SubspaceFromAnomalies(prefix, tc.maxRank, tc.relTol); !slices.Equal(oneShot.Modes.Data, want.Modes.Data) ||
					!slices.Equal(oneShot.Sigma, want.Sigma) {
					t.Fatalf("n=%d: SubspaceFromAnomalies differs from the oracle", k)
				}

				ok, rho := tr.Converged(crit)
				wantOK, wantRho := crit.Converged(prev, want)
				if math.Abs(rho-wantRho) > 1e-12 || ok != wantOK {
					t.Fatalf("n=%d: Converged = (%v, %.17g), oracle (%v, %.17g)", k, ok, rho, wantOK, wantRho)
				}
				prev = want
			}
		})
	}
}

// TestTrackerZeroModesContributeNothing pins the degenerate floor in
// coefficient space: a direction the oracle turns into a zero column
// must add exactly nothing to ρ, not 0·∞.
func TestTrackerZeroModesContributeNothing(t *testing.T) {
	// Two members along one axis, then two more along another: after the
	// first round one of the two modes is exactly null.
	a := linalg.NewDense(6, 4)
	a.Set(0, 0, 3)
	a.Set(0, 1, 3)
	a.Set(1, 2, 2)
	a.Set(1, 3, -1)
	tr := NewSubspaceTracker(0, 0)
	first := a.Slice(0, 6, 0, 2)
	if err := tr.Update(first.Columns(), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	prev := oracleSubspace(first, 0, 0)
	if prev.Sigma[1] != 0 || prev.Modes.At(0, 1) != 0 {
		t.Fatalf("the oracle's second mode is not the zero column the test needs: σ = %v", prev.Sigma)
	}
	if err := tr.Update(a.Columns(), []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, rho := tr.Converged(DefaultConvergence())
	want := SimilarityCoefficient(prev, oracleSubspace(a, 0, 0))
	if math.IsNaN(rho) || math.Abs(rho-want) > 1e-12 {
		t.Fatalf("rho = %v, oracle %v", rho, want)
	}
}

// TestTrackerGramIsGroupingIndependent feeds the same columns one by
// one, eight by eight and all at once: the Gram matrix, and so every
// number derived from it, must come out identical.
func TestTrackerGramIsGroupingIndependent(t *testing.T) {
	const m, n = 70, 24
	a := randomDense(rng.New(43), m, n)
	a.SetCol(5, make([]float64, m)) // MulTA skips zero entries; the mirror must not care
	indices := memberIndices(n)
	want := linalg.MulTA(a, a)
	cols := a.Columns()
	for _, step := range []int{1, 8, n} {
		tr := NewSubspaceTracker(0, 1e-8)
		// The first round needs two columns, whatever the step.
		for k := max(step, 2); k <= n; k += step {
			if err := tr.Update(cols[:k], indices[:k]); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != n {
			t.Fatalf("step %d: tracker holds %d members, want %d", step, tr.Len(), n)
		}
		if !slices.Equal(tr.gram.Data, want.Data) {
			t.Fatalf("step %d: incremental Gram differs from MulTA(A, A)", step)
		}
	}
}

// TestTrackerRejectsSnapshotsThatDoNotExtendTheLast pins the tracker's
// one assumption: old Gram entries are reused, so a snapshot whose
// leading columns are not the members already folded in must fail the
// round and leave the tracker usable.
func TestTrackerRejectsSnapshotsThatDoNotExtendTheLast(t *testing.T) {
	const m = 30
	a := randomDense(rng.New(44), m, 12)
	cols := a.Columns()
	indices := memberIndices(12)
	tr := NewSubspaceTracker(0, 0)
	if err := tr.Update(cols[:6], indices[:6]); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Subspace(a); err == nil {
		t.Fatal("Subspace formed modes from a matrix the last round did not see")
	}

	swapped := slices.Clone(indices[:9])
	swapped[1], swapped[2] = swapped[2], swapped[1]
	short := slices.Clone(cols[:9])
	short[7] = short[7][:m-1]
	bad := []struct {
		name    string
		cols    [][]float64
		indices []int
		want    string
	}{
		{"stale", cols[:6], indices[:6], "must grow"},
		{"shorter", cols[:4], indices[:4], "must grow"},
		{"reordered", cols[:9], swapped, "column 1 is member"},
		{"index count", cols[:9], indices[:8], "8 member indices for 9"},
		{"single column", cols[:1], indices[:1], "at least 2"},
		{"short column", short, indices[:9], "column 7 has 29 rows"},
	}
	for _, tc := range bad {
		err := tr.Update(tc.cols, tc.indices)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s snapshot: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// The failed rounds changed nothing: the next good one matches the
	// oracle.
	if err := tr.Update(cols, indices); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Subspace(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleSubspace(a, 0, 0); !slices.Equal(got.Modes.Data, want.Modes.Data) {
		t.Fatal("a rejected snapshot left its mark on the tracker")
	}
	if _, rho := tr.Converged(DefaultConvergence()); rho <= 0 {
		t.Fatalf("rho = %v after two good rounds", rho)
	}
}

// TestMeanCentredAnomaliesGiveRankMinusOneModes: n columns centred on
// their own mean span n−1 directions. The eigensolver leaves the missing
// direction a few ulps of λmax away from zero, which is far above zero in
// σ; GramSVD's rounding floor has to make it σ = 0, or relTol keeps it
// as a mode made of rounding. Both paths must give exactly n−1
// orthonormal modes.
func TestMeanCentredAnomaliesGiveRankMinusOneModes(t *testing.T) {
	for _, shape := range [][2]int{{200, 8}, {300, 24}, {2000, 64}} {
		m, n := shape[0], shape[1]
		a := randomDense(rng.New(uint64(45+n)), m, n)
		for i := 0; i < m; i++ {
			row := a.Row(i)
			mean := 0.0
			for _, v := range row {
				mean += v
			}
			mean /= float64(n)
			for j := range row {
				row[j] -= mean
			}
		}
		tr := NewSubspaceTracker(0, 1e-10)
		cols := a.Columns()
		for k := n / 2; k <= n; k += n / 2 {
			if err := tr.Update(cols[:k], memberIndices(n)[:k]); err != nil {
				t.Fatal(err)
			}
		}
		tracked, err := tr.Subspace(a)
		if err != nil {
			t.Fatal(err)
		}
		for name, sub := range map[string]*Subspace{
			"SubspaceFromAnomalies": SubspaceFromAnomalies(a, 0, 1e-10),
			"tracker":               tracked,
		} {
			if sub.Rank() != n-1 {
				t.Fatalf("%d×%d, %s: %d modes, want %d (σ tail %v)", m, n, name, sub.Rank(), n-1, sub.Sigma[sub.Rank()-2:])
			}
			if err := sub.Check(1e-10); err != nil {
				t.Fatalf("%d×%d, %s: %v", m, n, name, err)
			}
		}
	}
}
