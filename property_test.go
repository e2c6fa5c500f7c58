// Property-based tests (testing/quick) over cross-cutting invariants:
// randomized inputs must never violate the conservation, monotonicity
// and round-trip guarantees the subsystems advertise.
package esse_test

import (
	"math"
	"testing"
	"testing/quick"

	"esse/internal/cluster"
	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/ncdf"
	"esse/internal/obs"
	"esse/internal/rng"
	"esse/internal/sched"
)

func randomSubspaceFor(s *rng.Stream, dim, p int) *core.Subspace {
	a := linalg.NewDense(dim, p)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	f := linalg.QR(a)
	sigma := make([]float64, p)
	for i := range sigma {
		sigma[i] = float64(p-i) * (0.5 + s.Float64())
	}
	// enforce descending
	for i := 1; i < p; i++ {
		if sigma[i] > sigma[i-1] {
			sigma[i] = sigma[i-1]
		}
	}
	return &core.Subspace{Modes: f.Q, Sigma: sigma}
}

// Property: assimilation never increases total variance, always reduces
// (or preserves) the observed-space residual, and returns a structurally
// valid posterior — for any random observation set.
func TestPropertyAssimilationContracts(t *testing.T) {
	master := rng.New(101)
	f := func(seed uint16) bool {
		s := master.Split(uint64(seed))
		g := grid.New(4+s.Intn(4), 4+s.Intn(4), 1+s.Intn(3), 1, 1, 100)
		l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: g.NZ}})
		p := 2 + s.Intn(4)
		sub := randomSubspaceFor(s, l.Dim(), p)
		n := obs.NewNetwork(l)
		nObs := 1 + s.Intn(6)
		for o := 0; o < nObs; o++ {
			_ = n.Add(obs.Observation{
				Var: "T",
				I:   s.Intn(g.NX), J: s.Intn(g.NY), K: s.Intn(g.NZ),
				Stddev: 0.1 + s.Float64(),
			})
		}
		if n.Len() == 0 {
			return true
		}
		x := s.NormVec(nil, l.Dim())
		truth := s.NormVec(nil, l.Dim())
		y := n.Sample(truth, s)
		an, err := core.Assimilate(x, sub, n, y)
		if err != nil {
			return false
		}
		if an.Posterior.TotalVariance() > sub.TotalVariance()+1e-9 {
			return false
		}
		if an.ResidualNorm > an.InnovationNorm+1e-9 {
			return false
		}
		return an.Posterior.Check(1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the similarity coefficient is always in [0,1], is 1 for
// identical subspaces, and is symmetric under truncation order for
// equal-rank subspaces built from the same modes.
func TestPropertySimilarityBounds(t *testing.T) {
	master := rng.New(102)
	f := func(seed uint16) bool {
		s := master.Split(uint64(seed))
		dim := 10 + s.Intn(20)
		a := randomSubspaceFor(s, dim, 1+s.Intn(5))
		b := randomSubspaceFor(s, dim, 1+s.Intn(5))
		rho := core.SimilarityCoefficient(a, b)
		if rho < -1e-12 || rho > 1+1e-9 {
			return false
		}
		return math.Abs(core.SimilarityCoefficient(a, a)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: perturbations drawn from a subspace stay inside
// span(E) ⊕ white noise: with zero white noise, the residual after
// projecting onto the modes must vanish.
func TestPropertyPerturbationInSpan(t *testing.T) {
	master := rng.New(103)
	f := func(seed uint16) bool {
		s := master.Split(uint64(seed))
		dim := 8 + s.Intn(20)
		p := 1 + s.Intn(4)
		sub := randomSubspaceFor(s, dim, p)
		pert := sub.Perturb(nil, s, 0)
		// residual = pert - E Eᵀ pert
		coef := linalg.MatTVec(sub.Modes, pert)
		proj := linalg.MatVec(sub.Modes, coef)
		res := 0.0
		for i := range pert {
			d := pert[i] - proj[i]
			res += d * d
		}
		return math.Sqrt(res) < 1e-9*(1+linalg.Norm2(pert))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the DES conserves jobs and produces positive makespans for
// random (but sane) configurations.
func TestPropertySchedulerConservation(t *testing.T) {
	master := rng.New(104)
	c := cluster.MITAvailable(64)
	f := func(seed uint16) bool {
		s := master.Split(uint64(seed))
		cfg := sched.DefaultConfig()
		cfg.Seed = uint64(seed)
		if s.Bool(0.5) {
			cfg.Policy = sched.Condor
		}
		if s.Bool(0.5) {
			cfg.IOMode = sched.MixedNFS
		}
		cfg.JobArray = s.Bool(0.5)
		cfg.FailureProb = 0.3 * s.Float64()
		jobs := 1 + s.Intn(150)
		res := sched.Simulate(c, jobs, sched.ESSEJob(), cfg)
		if res.JobsCompleted+res.JobsFailed != jobs {
			return false
		}
		return res.Makespan > 0 && !math.IsNaN(res.Makespan) && !math.IsInf(res.Makespan, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: covstore round-trips arbitrary well-formed matrices.
func TestPropertyCovstoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := covstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(105)
	f := func(seed uint16) bool {
		s := master.Split(uint64(seed))
		r := 1 + s.Intn(30)
		c := 1 + s.Intn(10)
		m := linalg.NewDense(r, c)
		for i := range m.Data {
			m.Data[i] = s.Norm()
		}
		idx := make([]int, c)
		for i := range idx {
			idx[i] = s.Intn(1000)
		}
		if _, err := st.WriteSnapshot(m, idx); err != nil {
			return false
		}
		got, gotIdx, _, err := st.ReadSafe()
		if err != nil || !got.EqualApprox(m, 0) {
			return false
		}
		for i := range idx {
			if gotIdx[i] != idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: hyperslabs agree with direct indexing for random shapes and
// random in-range slabs.
func TestPropertyHyperSlabConsistency(t *testing.T) {
	master := rng.New(107)
	f := func(seed uint16) bool {
		s := master.Split(uint64(seed))
		nx, ny, nz := 2+s.Intn(5), 2+s.Intn(5), 2+s.Intn(4)
		f := ncdf.New()
		_ = f.AddDim("z", nz)
		_ = f.AddDim("y", ny)
		_ = f.AddDim("x", nx)
		data := s.NormVec(nil, nx*ny*nz)
		_ = f.AddVar("v", []string{"z", "y", "x"}, nil, data)
		v, _ := f.Var("v")
		sz := 1 + s.Intn(nz)
		sy := 1 + s.Intn(ny)
		sx := 1 + s.Intn(nx)
		oz := s.Intn(nz - sz + 1)
		oy := s.Intn(ny - sy + 1)
		ox := s.Intn(nx - sx + 1)
		slab, err := f.HyperSlab(v, []int{oz, oy, ox}, []int{sz, sy, sx})
		if err != nil {
			return false
		}
		i := 0
		for z := 0; z < sz; z++ {
			for y := 0; y < sy; y++ {
				for x := 0; x < sx; x++ {
					want := data[(oz+z)*ny*nx+(oy+y)*nx+(ox+x)]
					if slab[i] != want {
						return false
					}
					i++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
