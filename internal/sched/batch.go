package sched

import "esse/internal/cluster"

// SimulateBatched models the §5.3.4 workaround for schedulers that
// "prioritize large core count parallel jobs and thereby penalize
// massive task parallelism workloads": singleton jobs are repackaged
// into batches of `batch` members submitted as a single scheduler job.
//
// Each batch runs its members back-to-back on one core: the input files
// are read once per batch (the I/O win), the scheduler sees 1/batch as
// many submissions and dispatch events (the policy win), but the last
// wave has batch-sized granularity, so stragglers cost more (the
// load-balance loss TestBatchedGranularityTail asserts).
func SimulateBatched(c *cluster.Cluster, jobs int, spec JobSpec, cfg Config, batch int) *Result {
	if batch <= 1 {
		return Simulate(c, jobs, spec, cfg)
	}
	full := jobs / batch
	rem := jobs % batch

	batchSpec := JobSpec{
		PertCPU:      spec.PertCPU * float64(batch),
		ModelCPU:     spec.ModelCPU * float64(batch),
		PertInputMB:  spec.PertInputMB, // shared input read once per batch
		ModelInputMB: spec.ModelInputMB,
		OutputMB:     spec.OutputMB * float64(batch),
	}
	res := Simulate(c, full, batchSpec, cfg)

	if rem > 0 {
		// The leftover partial batch rides along as one more job; its
		// runtime is proportional to the remainder. Approximate by
		// extending the makespan if the partial batch cannot hide inside
		// the existing schedule (it usually can: it is shorter than any
		// full batch and there are idle cores in the last wave unless
		// full batches exactly fill every wave).
		cores := c.TotalCores()
		if cores > 0 && full%cores == 0 {
			partial := JobSpec{
				PertCPU:      spec.PertCPU * float64(rem),
				ModelCPU:     spec.ModelCPU * float64(rem),
				PertInputMB:  spec.PertInputMB,
				ModelInputMB: spec.ModelInputMB,
				OutputMB:     spec.OutputMB * float64(rem),
			}
			tail := Simulate(c, 1, partial, cfg)
			res.Makespan += tail.Makespan
			res.NFSMBMoved += tail.NFSMBMoved
		}
	}

	// Convert batch counts back to member counts.
	res.JobsCompleted = res.JobsCompleted*batch + rem
	res.JobsFailed *= batch
	res.MeanJobSeconds /= float64(batch)
	res.MaxJobSeconds /= float64(batch)
	return res
}
