package ocean

import "sync"

// StepParallel advances the model one time step using `tasks` goroutines
// that each own a band of grid rows — the Go analog of the paper's
// future-work "massive ensembles of small (2-3 task) MPI jobs", where
// each ensemble member is itself a small parallel program.
//
// It is Step with each sweep's row kernel called on bands instead of on
// the whole interior, and so bit-identical to it, tracer clock included:
// every sweep reads only the previous sweep's arrays and writes disjoint
// rows, with a barrier between sweeps (the role halo exchanges play in
// the MPI version). The stochastic forcing is drawn serially from the
// member's stream so the noise sequence is independent of the task count.
func (m *Model) StepParallel(tasks int) { m.step(tasks) }

// sweep runs a row kernel over the interior rows: in one call when tasks
// is at most 1, else on bands (parallelRows).
func (m *Model) sweep(tasks int, kernel func(m *Model, jLo, jHi int)) {
	if tasks <= 1 {
		kernel(m, 1, m.Cfg.Grid.NY-1)
		return
	}
	m.parallelRows(tasks, kernel)
}

// parallelRows splits rows [0, NY) into contiguous bands, runs the row
// kernel on each in its own goroutine, and waits for all (the sweep
// barrier).
func (m *Model) parallelRows(tasks int, kernel func(m *Model, jLo, jHi int)) {
	ny := m.Cfg.Grid.NY
	if tasks > ny {
		tasks = ny
	}
	var wg sync.WaitGroup
	chunk := (ny + tasks - 1) / tasks
	for t := 0; t < tasks; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > ny {
			hi = ny
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernel(m, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// RunParallel is Run with task-parallel stepping.
func (m *Model) RunParallel(n, tasks int) { m.run(n, tasks) }
