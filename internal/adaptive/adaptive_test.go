package adaptive

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"esse/internal/core"
	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/obs"
	"esse/internal/rng"
)

// twoModeSubspace has mode 0 (σ=3) on elements {0,1} and mode 1 (σ=1)
// on elements {5,6}, so correlations are easy to reason about.
func twoModeSubspace() *core.Subspace {
	e := linalg.NewDense(10, 2)
	s := 1 / math.Sqrt2
	e.Set(0, 0, s)
	e.Set(1, 0, s)
	e.Set(5, 1, s)
	e.Set(6, 1, s)
	return &core.Subspace{Modes: e, Sigma: []float64{3, 1}}
}

// candidates observes each offset with error standard deviation sd.
func candidates(sd float64, offsets ...int) *obs.Points {
	r := make([]float64, len(offsets))
	for i := range r {
		r[i] = sd * sd
	}
	return &obs.Points{Offsets: offsets, R: r}
}

func TestGreedyPicksHighestVarianceFirst(t *testing.T) {
	sub := twoModeSubspace()
	cands := candidates(0.1,
		5, // on the weak mode
		0, // on the strong mode
	)
	plan, err := Greedy(sub, cands, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen[0] != 1 {
		t.Fatalf("greedy picked candidate %d, want the strong-mode one", plan.Chosen[0])
	}
}

func TestGreedyDiversifiesAfterFirstPick(t *testing.T) {
	// Elements 0 and 1 carry the SAME mode; observing one makes the
	// other nearly worthless. A good planner then samples the other mode
	// even though element 1's marginal variance is 4.5x element 5's.
	sub := twoModeSubspace()
	cands := candidates(0.01, 0, 1, 5)
	plan, err := Greedy(sub, cands, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen[0] == 2 {
		t.Fatal("first pick should target the dominant mode")
	}
	if plan.Chosen[1] != 2 {
		t.Fatalf("second pick = candidate %d, want the other-mode candidate (naive would pick the redundant twin)", plan.Chosen[1])
	}
	// Contrast with the naive ranking, which picks the redundant twin.
	naive := RankCandidatesByVariance(sub, cands)
	if naive[1] == 2 {
		t.Fatal("test premise broken: naive ranking should prefer the redundant candidate")
	}
}

func TestGreedyReductionMonotoneAndBounded(t *testing.T) {
	s := rng.New(4)
	a := linalg.NewDense(30, 5)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	f := linalg.QR(a)
	sub := &core.Subspace{Modes: f.Q, Sigma: []float64{5, 4, 3, 2, 1}}
	var offs []int
	for off := 0; off < 30; off += 2 {
		offs = append(offs, off)
	}
	cands := candidates(0.5, offs...)
	plan, err := Greedy(sub, cands, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Chosen) != 8 {
		t.Fatalf("chose %d", len(plan.Chosen))
	}
	prev := 0.0
	for i, red := range plan.Reduction {
		if red < prev-1e-12 {
			t.Fatalf("cumulative reduction decreased at pick %d", i)
		}
		prev = red
	}
	if prev > sub.TotalVariance()+1e-9 {
		t.Fatalf("reduction %v exceeds total variance %v", prev, sub.TotalVariance())
	}
	// No duplicate picks.
	seen := map[int]bool{}
	for _, c := range plan.Chosen {
		if seen[c] {
			t.Fatal("candidate picked twice")
		}
		seen[c] = true
	}
}

func TestGreedyValidation(t *testing.T) {
	sub := twoModeSubspace()
	if _, err := Greedy(sub, candidates(1), 3); err == nil {
		t.Fatal("empty candidates accepted")
	}
	if _, err := Greedy(sub, candidates(1, 0), 0); err == nil {
		t.Fatal("zero picks accepted")
	}
	if _, err := Greedy(sub, candidates(1, 99), 1); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	if _, err := Greedy(sub, candidates(0, 0), 1); err == nil {
		t.Fatal("zero obs error accepted")
	}
}

func TestExpectedReductionMatchesAssimilation(t *testing.T) {
	// The planner's batch formula must equal the variance actually
	// removed by core.Assimilate with the same network.
	g := grid.New(6, 6, 2, 1, 1, 100)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 2}})
	s := rng.New(7)
	a := linalg.NewDense(l.Dim(), 4)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	f := linalg.QR(a)
	sub := &core.Subspace{Modes: f.Q, Sigma: []float64{2, 1.5, 1, 0.5}}
	net := obs.NewNetwork(l)
	for i := 0; i < 5; i++ {
		if err := net.Add(obs.Observation{Var: "T", I: i, J: i, K: 0, Stddev: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	n := unitPoints(t, net)
	expected, err := ExpectedReduction(sub, n)
	if err != nil {
		t.Fatal(err)
	}
	x := s.NormVec(nil, l.Dim())
	y := n.ApplyH(x) // values irrelevant for variance bookkeeping
	an, err := core.Assimilate(x, sub, n, y)
	if err != nil {
		t.Fatal(err)
	}
	actual := sub.TotalVariance() - an.Posterior.TotalVariance()
	if math.Abs(expected-actual) > 1e-8*(1+actual) {
		t.Fatalf("planner predicts %v, assimilation removed %v", expected, actual)
	}
}

func TestExpectedReductionEmptyNetwork(t *testing.T) {
	g := grid.New(4, 4, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	n := unitPoints(t, obs.NewNetwork(l))
	sub := twoModeSubspace()
	red, err := ExpectedReduction(sub, n)
	if err != nil || red != 0 {
		t.Fatalf("empty network: red=%v err=%v", red, err)
	}
}

func TestGreedyBeatsNaiveOnCorrelatedField(t *testing.T) {
	// Build a subspace with strong spatial correlation (a few smooth
	// modes); greedy's k picks must reduce at least as much variance as
	// the naive top-k-variance picks.
	s := rng.New(11)
	dim := 40
	a := linalg.NewDense(dim, 3)
	for j := 0; j < 3; j++ {
		for i := 0; i < dim; i++ {
			a.Set(i, j, math.Sin(float64(i*(j+1))*0.2)+0.1*s.Norm())
		}
	}
	f := linalg.QR(a)
	sub := &core.Subspace{Modes: f.Q, Sigma: []float64{4, 2, 1}}
	var offs []int
	for off := 0; off < dim; off++ {
		offs = append(offs, off)
	}
	cands := candidates(0.2, offs...)
	const k = 4
	plan, err := Greedy(sub, cands, k)
	if err != nil {
		t.Fatal(err)
	}
	naiveOrder := RankCandidatesByVariance(sub, cands)[:k]

	reduction := func(picks []int) float64 {
		gamma := linalg.NewDense(3, 3)
		for j := 0; j < 3; j++ {
			gamma.Set(j, j, sub.Sigma[j]*sub.Sigma[j])
		}
		before := gamma.Trace()
		gh := make([]float64, 3)
		for _, ci := range picks {
			applyRankOneUpdate(gamma, sub.Modes.Row(cands.Offsets[ci]), cands.R[ci], gh)
		}
		return before - gamma.Trace()
	}
	if g, n := reduction(plan.Chosen), reduction(naiveOrder); g < n-1e-9 {
		t.Fatalf("greedy reduction %v below naive %v", g, n)
	}

	// Both planners cost a fixed count at this shape, whatever the picks.
	if n := testing.AllocsPerRun(20, func() { Greedy(sub, cands, k) }); n != 6 {
		t.Errorf("Greedy: %v allocs/op, want 6", n)
	}
	if n := testing.AllocsPerRun(20, func() { RankCandidatesByVariance(sub, cands) }); n != 5 {
		t.Errorf("RankCandidatesByVariance: %v allocs/op, want 5", n)
	}
}

// unitPoints is the network's operator in physical units (every scale 1).
func unitPoints(t *testing.T, n *obs.Network) *obs.Points {
	t.Helper()
	ones := make([]float64, n.Layout.Dim())
	for i := range ones {
		ones[i] = 1
	}
	p, err := obs.NewScaled(n, ones)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ExpectedReduction evaluates a whole candidate observation batch at
// once: the exact expected total-variance reduction
// tr(Γ HEᵀ (HE Γ HEᵀ + R)⁻¹ HE Γ) for the batch, matching what
// core.Assimilate will deliver on average.
func ExpectedReduction(sub *core.Subspace, network *obs.Points) (float64, error) {
	p := sub.Rank()
	m := network.Len()
	if m == 0 {
		return 0, nil
	}
	he := network.ApplyHMat(sub.Modes) // m×p
	heg := linalg.NewDense(m, p)       // HE Γ
	for i := 0; i < m; i++ {
		row := he.Row(i)
		out := heg.Row(i)
		for j := 0; j < p; j++ {
			out[j] = row[j] * sub.Sigma[j] * sub.Sigma[j]
		}
	}
	s := linalg.MulBT(heg, he)
	for i := 0; i < m; i++ {
		s.Set(i, i, s.At(i, i)+network.R[i])
	}
	sInv, ok := linalg.InvertSPD(s)
	if !ok {
		return 0, fmt.Errorf("adaptive: singular innovation covariance")
	}
	// tr(Γ HEᵀ S⁻¹ HE Γ) = tr(S⁻¹ · (HE Γ)(HE Γ)ᵀ... ) — compute as
	// tr(S⁻¹ · HEΓ²HEᵀ)? Careful: reduction = tr(ΓHEᵀ S⁻¹ HE Γ)
	// = sum over modes of [HEΓ]ᵀ S⁻¹ [HEΓ] diagonal.
	red := 0.0
	col := make([]float64, m)
	for j := 0; j < p; j++ {
		heg.Col(col, j)
		sc := linalg.MatVec(sInv, col)
		red += linalg.Dot(col, sc)
	}
	return red, nil
}

// RankCandidatesByVariance is the naive baseline: sort candidates by
// prior marginal variance (descending), ignoring correlations. Used by
// tests and benchmarks to show what sequential greedy buys.
func RankCandidatesByVariance(sub *core.Subspace, cands *obs.Points) []int {
	type scored struct {
		idx int
		v   float64
	}
	list := make([]scored, cands.Len())
	for i, off := range cands.Offsets {
		row := sub.Modes.Row(off)
		v := 0.0
		for j, e := range row {
			v += e * e * sub.Sigma[j] * sub.Sigma[j]
		}
		list[i] = scored{idx: i, v: v}
	}
	sort.Slice(list, func(a, b int) bool { return list[a].v > list[b].v })
	out := make([]int, len(list))
	for i, s := range list {
		out[i] = s.idx
	}
	return out
}
