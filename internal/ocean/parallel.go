package ocean

import "sync"

// StepParallel advances the model one time step using `tasks` goroutines
// that each own a band of grid rows — the Go analog of the paper's
// future-work "massive ensembles of small (2-3 task) MPI jobs", where
// each ensemble member is itself a small parallel program.
//
// It is Step with each sweep's row kernel called on bands instead of on
// the whole interior, and so bit-identical to it: every sweep reads only
// the previous sweep's arrays and writes disjoint rows, with a barrier
// between sweeps (the role halo exchanges play in the MPI version). The
// stochastic forcing is drawn serially from the member's stream so the
// noise sequence is independent of the task count.
func (m *Model) StepParallel(tasks int) {
	if tasks <= 1 {
		m.Step()
		return
	}
	m.sampleForcing()
	m.parallelRows(tasks, (*Model).momentumRows)
	m.closeVelocities()
	m.parallelRows(tasks, (*Model).continuityRows)
	m.commitDynamics()
	for n, tr := range [2][]float64{m.t, m.s} {
		for k := range m.decay {
			m.level = tracerLevel{tr, k, n == 0 && k == 0}
			m.parallelRows(tasks, (*Model).tracerLevelRows)
			m.commitLevel(tr, k)
		}
	}
	m.finishStep()
}

// tracerLevel names the tracerRows sweep the bands are running. It reaches
// them through the model, written before the spawn, so that stepping
// allocates no closure per level.
type tracerLevel struct {
	tr     []float64
	k      int
	forced bool
}

func (m *Model) tracerLevelRows(jLo, jHi int) {
	m.tracerRows(m.level.tr, m.level.k, m.level.forced, jLo, jHi)
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

// RunParallel advances n steps with task-parallel stepping.
func (m *Model) RunParallel(n, tasks int) {
	for i := 0; i < n; i++ {
		m.StepParallel(tasks)
	}
}
