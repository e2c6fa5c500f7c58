package esse_test

import (
	"context"
	"testing"

	"esse/internal/realtime"
)

// TestEnsembleSchedulingOrderIndependence pins the determinism contract
// the esselint analyzers exist to protect: a fixed-master-seed twin
// experiment must produce bit-identical science whether the ensemble
// runs on one worker, two or eight — with adaptive convergence and its
// cancellation on. Member randomness derives from (seed, member index)
// and the workflow engine commits members in index order and discards
// those that finish after the converging SVD, so completion order — the
// only remaining scheduling freedom — cannot leak into results.
func TestEnsembleSchedulingOrderIndependence(t *testing.T) {
	type outcome struct {
		analysis []float64
		sigma    []float64
		rmse     []float64
	}
	run := func(workers int) outcome {
		cfg := integrationConfig()
		// A batch that does not divide the pool of 8: convergence lands
		// inside the pool, with members in flight to be cancelled.
		cfg.Ensemble.SVDBatch = 3
		cfg.Ensemble.Workers = workers
		sys, err := realtime.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results, err := sys.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{
			analysis: append([]float64(nil), sys.Analysis()...),
			sigma:    append([]float64(nil), sys.Subspace().Sigma...),
		}
		for _, r := range results {
			out.rmse = append(out.rmse, r.RMSEForecastT, r.RMSEAnalysisT)
		}
		return out
	}

	one := run(1)
	for _, workers := range []int{2, 8} {
		many := run(workers)
		bitEqual := func(name string, a, b []float64) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s[%d]: Workers=1 gives %v, Workers=%d gives %v", name, i, a[i], workers, b[i])
					return
				}
			}
		}
		bitEqual("analysis", one.analysis, many.analysis)
		bitEqual("sigma", one.sigma, many.sigma)
		bitEqual("rmse", one.rmse, many.rmse)
	}
}
