// Package remote models the remote execution platforms of the paper's
// Sections 5.3 and 5.4: TeraGrid sites (Table 1), Amazon EC2 instance
// types (Table 2), the EC2 cost model of §5.4.2, and the push/pull/
// two-stage output transfer strategies of §5.3.2.
//
// Sites and instances carry calibrated speed factors relative to the
// local Opteron 250 baseline, split into a CPU-bound component (pemodel)
// and a filesystem-sensitive component (pert): the paper observes that
// ORNL's slow pert "appears to be partly related to the PVFS2
// filesystem", so compute speed alone cannot describe a host.
package remote

import "esse/internal/sched"

// Site is one remote (TeraGrid-style) execution site.
type Site struct {
	Name      string
	Processor string
	// ComputeSpeed scales CPU-bound work relative to the local baseline
	// (1.0 = Opteron 250 2.4 GHz).
	ComputeSpeed float64
	// PertFSPenalty multiplies pert runtime on top of compute speed —
	// the filesystem/startup overhead the paper saw at ORNL.
	PertFSPenalty float64
	// FreeCores is what the site realistically offers a single user at
	// a time (the paper: "around 100 at a time free to run a user job").
	FreeCores int
}

// PertTime returns the expected pert runtime (seconds) for the job spec.
func (s Site) PertTime(spec sched.JobSpec) float64 {
	return spec.PertCPU / s.ComputeSpeed * s.PertFSPenalty
}

// ModelTime returns the expected pemodel runtime (seconds).
func (s Site) ModelTime(spec sched.JobSpec) float64 {
	return spec.ModelCPU / s.ComputeSpeed
}

// TeragridSites returns the Table 1 catalog. Speed factors are
// calibrated so that PertTime/ModelTime of the reference ESSE job
// reproduce the measured seconds:
//
//	site    processor            pert    pemodel
//	ORNL    Pentium4 3.06GHz     67.83   1823.99
//	Purdue  Core2 2.33GHz         6.25   1107.40
//	local   Opteron 250 2.4GHz    6.21   1531.33
func TeragridSites() []Site {
	spec := sched.ESSEJob()
	mk := func(name, cpu string, pert, model float64, cores int) Site {
		speed := spec.ModelCPU / model
		penalty := pert * speed / spec.PertCPU
		return Site{
			Name:          name,
			Processor:     cpu,
			ComputeSpeed:  speed,
			PertFSPenalty: penalty,
			FreeCores:     cores,
		}
	}
	return []Site{
		mk("ORNL", "Pentium4 3.06GHz", 67.83, 1823.99, 100),
		mk("Purdue", "Core2 2.33GHz", 6.25, 1107.40, 100),
		mk("local", "Opteron 250 2.4GHz", 6.21, 1531.33, 210),
	}
}
