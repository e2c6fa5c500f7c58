package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"esse/internal/rng"
)

func TestAccumulatorDiffsAgainstCentral(t *testing.T) {
	central := []float64{1, 2, 3}
	acc := NewAccumulator(central)
	if err := acc.Add(0, []float64{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	a := acc.Anomalies()
	if a.Rows != 3 || a.Cols != 1 {
		t.Fatalf("anomaly shape %dx%d", a.Rows, a.Cols)
	}
	if a.At(0, 0) != 1 || a.At(1, 0) != 0 || a.At(2, 0) != -1 {
		t.Fatalf("anomaly = %v", a.Data)
	}
}

func TestAccumulatorRejectsDuplicateIndex(t *testing.T) {
	acc := NewAccumulator([]float64{0})
	if err := acc.Add(5, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(5, []float64{2}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if acc.Len() != 1 {
		t.Fatalf("Len = %d after duplicate rejection", acc.Len())
	}
}

func TestAccumulatorRejectsWrongDim(t *testing.T) {
	acc := NewAccumulator([]float64{0, 0})
	if err := acc.Add(0, []float64{1}); err == nil {
		t.Fatal("wrong-dimension member accepted")
	}
}

func TestAccumulatorOutOfOrderIndices(t *testing.T) {
	// The caller decides the order in which members enter the covariance
	// and the accumulator holds it to increasing indices: gaps are fine
	// (failed members leave them), going back is not.
	acc := NewAccumulator([]float64{0})
	for _, idx := range []int{1, 2, 7} {
		if err := acc.Add(idx, []float64{float64(idx)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.Add(5, []float64{5}); err == nil {
		t.Fatal("member 5 accepted after member 7")
	}
	if err := acc.Add(9, []float64{9}); err != nil {
		t.Fatalf("a rejected Add must leave the accumulator usable: %v", err)
	}
	// Columns and bookkeeping are exactly the accepted members, as added.
	want := []int{1, 2, 7, 9}
	got := acc.Indices()
	a := acc.Anomalies()
	if len(got) != len(want) || a.Cols != len(want) {
		t.Fatalf("Indices = %v (%d columns), want %v", got, a.Cols, want)
	}
	for j, idx := range want {
		if got[j] != idx || a.At(0, j) != float64(idx) {
			t.Fatalf("column %d: index %d value %v, want member %d", j, got[j], a.At(0, j), idx)
		}
	}
}

func TestAccumulatorEnsembleMean(t *testing.T) {
	acc := NewAccumulator([]float64{10, 20})
	_ = acc.Add(0, []float64{12, 20})
	_ = acc.Add(1, []float64{8, 24})
	mean := acc.EnsembleMean()
	if mean[0] != 10 || mean[1] != 22 {
		t.Fatalf("EnsembleMean = %v, want [10 22]", mean)
	}
}

func TestAccumulatorEmptyMeanIsCentral(t *testing.T) {
	acc := NewAccumulator([]float64{5, 6})
	mean := acc.EnsembleMean()
	if mean[0] != 5 || mean[1] != 6 {
		t.Fatalf("empty mean = %v", mean)
	}
}

func TestAccumulatorCentralIsCopied(t *testing.T) {
	central := []float64{1}
	acc := NewAccumulator(central)
	central[0] = 99
	if acc.Central()[0] != 1 {
		t.Fatal("accumulator aliased the caller's central slice")
	}
	c := acc.Central()
	c[0] = 42
	if acc.Central()[0] != 1 {
		t.Fatal("Central did not return a copy")
	}
}

func TestAccumulatorConcurrentAdds(t *testing.T) {
	// Adders race without coordinating their order, so some lose (their
	// index is below one already in) — but whatever the mutex let in must
	// be consistent: increasing indices, one column each, column j the
	// anomaly of member Indices()[j]. Run under -race this also checks
	// the locking of Add against the snapshot readers.
	const members = 200
	dim := 50
	central := make([]float64, dim)
	acc := NewAccumulator(central)
	s := rng.New(3)
	states := make([][]float64, members)
	for i := range states {
		states[i] = s.NormVec(nil, dim)
	}
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if acc.Add(i, states[i]) == nil {
				accepted.Add(1)
			}
			if a := acc.Anomalies(); a.Cols > acc.Len() {
				t.Errorf("snapshot has %d columns, more than were ever added", a.Cols)
			}
		}(i)
	}
	wg.Wait()
	if acc.Len() == 0 || acc.Len() != int(accepted.Load()) {
		t.Fatalf("Len = %d, %d Adds succeeded", acc.Len(), accepted.Load())
	}
	a := acc.Anomalies()
	idxs := acc.Indices()
	if a.Cols != len(idxs) {
		t.Fatalf("%d columns for %d indices", a.Cols, len(idxs))
	}
	for j, idx := range idxs {
		if j > 0 && idx <= idxs[j-1] {
			t.Fatalf("Indices not increasing: %v", idxs)
		}
		for i := 0; i < dim; i++ {
			if math.Abs(a.At(i, j)-states[idx][i]) > 1e-15 {
				t.Fatalf("anomaly column %d does not match member %d", j, idx)
			}
		}
	}
}

func TestAnomaliesSnapshotIsolation(t *testing.T) {
	acc := NewAccumulator([]float64{0})
	_ = acc.Add(0, []float64{1})
	snap := acc.Anomalies()
	_ = acc.Add(1, []float64{2})
	if snap.Cols != 1 {
		t.Fatal("snapshot grew after later Add")
	}
}

// TestColumnsIsAZeroCopySnapshot: Columns hands out the stored columns
// themselves, a later Add does not show in an earlier result, and
// appending to a result cannot reach the accumulator's own slice.
func TestColumnsIsAZeroCopySnapshot(t *testing.T) {
	acc := NewAccumulator([]float64{1, 1})
	_ = acc.Add(0, []float64{2, 3})
	_ = acc.Add(4, []float64{0, 1})
	cols := acc.Columns()
	if &cols[0][0] != &acc.Columns()[0][0] {
		t.Fatal("Columns copied the columns")
	}
	_ = append(cols, []float64{9, 9})
	_ = acc.Add(7, []float64{5, 5})
	if len(cols) != 2 {
		t.Fatalf("an earlier Columns result has %d columns after a later Add", len(cols))
	}
	a := acc.Anomalies()
	for j, col := range acc.Columns() {
		for i, v := range col {
			if v != a.At(i, j) {
				t.Fatalf("column %d = %v, Anomalies has %v", j, col, a.Col(nil, j))
			}
		}
	}
}
