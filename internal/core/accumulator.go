package core

import (
	"fmt"
	"sync"

	"esse/internal/linalg"
)

// Accumulator is the "diff loop" of the paper's Fig. 4 run as a data
// structure: each ensemble member forecast is differenced against the
// central forecast into a growing anomaly matrix, with per-column
// bookkeeping (Indices) of which member produced which column — failed
// or ignored members leave gaps, so the column number alone does not
// say.
//
// Columns are stored, snapshotted and summed in the order they are
// added, and Add accepts only increasing member indices: the order in
// which members enter the covariance is the caller's decision (the
// workflow engine commits in member-index order so that floating-point
// results do not depend on goroutine scheduling), and the accumulator
// holds it to that decision instead of re-deriving it.
//
// Accumulator is safe for concurrent use.
type Accumulator struct {
	mu      sync.Mutex
	central []float64
	cols    [][]float64
	indices []int
}

// NewAccumulator creates an accumulator for the given central forecast.
// The central state is copied.
func NewAccumulator(central []float64) *Accumulator {
	c := make([]float64, len(central))
	copy(c, central)
	return &Accumulator{central: c}
}

// Add differences one member forecast against the central forecast and
// appends it as a new anomaly column. The index must be greater than
// every index added before; a repeated or out-of-order index is an error
// (a lost-and-retried task must be deduplicated by the caller's tracker,
// but this is the last line of defense).
func (a *Accumulator) Add(index int, state []float64) error {
	if len(state) != len(a.central) {
		return fmt.Errorf("core: member %d has dim %d, central has %d", index, len(state), len(a.central))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.indices); n > 0 && index <= a.indices[n-1] {
		return fmt.Errorf("core: member %d added after member %d; indices must increase", index, a.indices[n-1])
	}
	col := make([]float64, len(state))
	for i, v := range state {
		col[i] = v - a.central[i]
	}
	a.cols = append(a.cols, col)
	a.indices = append(a.indices, index)
	return nil
}

// Len returns the number of accumulated members.
func (a *Accumulator) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.cols)
}

// Indices returns the member indices, aligned with Anomalies columns.
func (a *Accumulator) Indices() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, len(a.indices))
	copy(out, a.indices)
	return out
}

// Anomalies snapshots the current anomaly matrix (stateDim × n), one
// column per member in increasing member-index order. The matrix is a
// copy: the SVD stage can work on it while more members stream in (this
// is the role of the paper's "safe file").
func (a *Accumulator) Anomalies() *linalg.Dense {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.cols)
	m := len(a.central)
	out := linalg.NewDense(m, n)
	// Row by row, so the writes are contiguous: the n columns are read
	// as n sequential streams, and a strided write of every element is
	// what costs (3× at 15 360 × 128).
	for i := 0; i < m; i++ {
		row := out.Data[i*n : (i+1)*n]
		for j, col := range a.cols {
			row[j] = col[i]
		}
	}
	return out
}

// Columns returns the anomaly columns, one per member in increasing
// member-index order, without copying them. A column is never written
// after its Add returns, so the result is a snapshot that later Adds do
// not change; the caller must not write to it.
func (a *Accumulator) Columns() [][]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cols[:len(a.cols):len(a.cols)]
}

// EnsembleMean returns central + mean(anomalies): the ensemble estimate
// of the conditional mean.
func (a *Accumulator) EnsembleMean() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	mean := make([]float64, len(a.central))
	copy(mean, a.central)
	if len(a.cols) == 0 {
		return mean
	}
	inv := 1 / float64(len(a.cols))
	for _, col := range a.cols {
		for i, v := range col {
			mean[i] += v * inv
		}
	}
	return mean
}

// Central returns a copy of the central forecast.
func (a *Accumulator) Central() []float64 {
	out := make([]float64, len(a.central))
	copy(out, a.central)
	return out
}
