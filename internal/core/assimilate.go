package core

import (
	"fmt"
	"math"

	"esse/internal/linalg"
	"esse/internal/obs"
)

// Analysis is the result of an ESSE assimilation update.
type Analysis struct {
	// Mean is the analysis (posterior) state estimate.
	Mean []float64
	// Posterior is the updated error subspace.
	Posterior *Subspace
	// InnovationNorm is the R⁻¹-weighted misfit ‖y − Hx‖_R⁻¹ before the
	// update. The weighting is what the minimum-error-variance update
	// provably reduces; the unweighted norm can grow when observation
	// errors are heterogeneous.
	InnovationNorm float64
	// ResidualNorm is ‖y − Hx‖_R⁻¹ after the update.
	ResidualNorm float64
}

// Assimilate performs the ESSE minimum-error-variance (Kalman) update in
// the error subspace. With forecast mean x, subspace (E, σ), point
// measurement operator H, observations y and diagonal error covariance R:
//
//	Γ   = diag(σ²)                      (subspace covariance)
//	HE  = H E                           (obsDim × p, by row gathering)
//	S   = HE Γ HEᵀ + R                  (innovation covariance)
//	K d = E Γ HEᵀ S⁻¹ (y − Hx)          (gain applied to innovation)
//	Γa  = Γ − Γ HEᵀ S⁻¹ HE Γ            (posterior subspace covariance)
//
// Γa is re-diagonalized (Γa = W Λ Wᵀ) and the posterior modes rotated to
// Ea = E W so that the invariant "orthonormal modes, diagonal spectrum"
// holds for the next forecast cycle.
func Assimilate(x []float64, sub *Subspace, pts *obs.Points, y []float64) (*Analysis, error) {
	p := sub.Rank()
	mObs := pts.Len()
	if len(y) != mObs {
		return nil, fmt.Errorf("core: %d observations but %d values", mObs, len(y))
	}
	if len(x) != sub.StateDim() {
		return nil, fmt.Errorf("core: state dim %d != subspace dim %d", len(x), sub.StateDim())
	}
	if mObs == 0 {
		mean := make([]float64, len(x))
		copy(mean, x)
		return &Analysis{Mean: mean, Posterior: sub.Clone()}, nil
	}

	he := pts.ApplyHMat(sub.Modes) // mObs × p

	// S = HE Γ HEᵀ + R.
	heg := linalg.NewDense(mObs, p) // HE Γ
	for i := 0; i < mObs; i++ {
		row := he.Row(i)
		out := heg.Row(i)
		for j := 0; j < p; j++ {
			out[j] = row[j] * sub.Sigma[j] * sub.Sigma[j]
		}
	}
	s := linalg.MulBT(heg, he)
	for i := 0; i < mObs; i++ {
		s.Set(i, i, s.At(i, i)+pts.R[i])
	}

	// Innovation d = y − Hx (diagnostics use the R⁻¹ weighting).
	hx := pts.ApplyH(x)
	d := linalg.VecSub(y, hx)
	innovationNorm := weightedNorm(d, pts.R)

	sInv, ok := linalg.InvertSPD(s)
	if !ok {
		return nil, fmt.Errorf("core: innovation covariance not positive definite (rank %d, %d obs)", p, mObs)
	}

	// Gain applied to innovation: K d = E Γ HEᵀ S⁻¹ d.
	sid := linalg.MatVec(sInv, d)      // S⁻¹ d
	ghesid := linalg.MatTVec(heg, sid) // Γ HEᵀ S⁻¹ d  (p)
	incr := linalg.MatVec(sub.Modes, ghesid)

	mean := make([]float64, len(x))
	for i := range x {
		mean[i] = x[i] + incr[i]
	}

	// Posterior subspace covariance Γa = Γ − Γ HEᵀ S⁻¹ HE Γ.
	gheT := heg.T()                 // p × mObs  (Γ HEᵀ)
	tmp := linalg.Mul(gheT, sInv)   // p × mObs
	reduce := linalg.Mul(tmp, heg)  // p × p  (Γ HEᵀ S⁻¹ HE Γ)
	gammaA := linalg.NewDense(p, p) // Γ − reduce
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			v := -reduce.At(i, j)
			if i == j {
				v += sub.Sigma[i] * sub.Sigma[i]
			}
			gammaA.Set(i, j, v)
		}
	}

	// Re-diagonalize and rotate the modes.
	eig := linalg.SymEig(gammaA)
	sigma := make([]float64, p)
	for i, lam := range eig.Values {
		if lam < 0 {
			lam = 0 // clip round-off negatives: covariance is PSD
		}
		sigma[i] = math.Sqrt(lam)
	}
	modes := linalg.Mul(sub.Modes, eig.Vectors)

	post := &Subspace{Modes: modes, Sigma: sigma}
	res := linalg.VecSub(y, pts.ApplyH(mean))
	return &Analysis{
		Mean:           mean,
		Posterior:      post,
		InnovationNorm: innovationNorm,
		ResidualNorm:   weightedNorm(res, pts.R),
	}, nil
}

// weightedNorm computes ‖v‖ in the R⁻¹ metric for diagonal R.
func weightedNorm(v, rDiag []float64) float64 {
	s := 0.0
	for i, x := range v {
		s += x * x / rDiag[i]
	}
	return math.Sqrt(s)
}
