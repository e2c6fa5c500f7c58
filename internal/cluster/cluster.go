// Package cluster describes the compute platform of the paper's Section
// 5.2: the MIT home cluster (114 dual-socket Opteron 250 nodes plus a
// few Opteron 285 replacements), its NFS fileserver with a 10 Gbit/s
// uplink, and per-node local disks. The description feeds the
// discrete-event scheduler simulation in internal/sched, which is the
// stdlib substitute for running the real SGE/Condor workload.
package cluster

import (
	"fmt"
	"strconv"
)

// Node is one compute host.
type Node struct {
	Name string
	// Cores is the number of schedulable cores.
	Cores int
	// Speed is the relative compute speed; 1.0 is the local Opteron 250
	// baseline that the paper's Table 1 "local" row uses.
	Speed float64
	// LocalDiskMBps is the local scratch-disk bandwidth.
	LocalDiskMBps float64
}

// NFS models the shared fileserver as a processor-sharing resource: all
// concurrent transfers split the uplink bandwidth evenly.
type NFS struct {
	// BandwidthMBps is the server uplink (10 Gbit/s ≈ 1250 MB/s).
	BandwidthMBps float64
}

// Cluster is a set of nodes behind one shared fileserver.
type Cluster struct {
	Nodes []Node
	NFS   NFS
}

// TotalCores sums cores over all nodes.
func (c *Cluster) TotalCores() int {
	n := 0
	for _, node := range c.Nodes {
		n += node.Cores
	}
	return n
}

// CoreList expands the cluster into per-core slots (node speed attached),
// the granularity at which SGE and Condor schedule singleton jobs.
func (c *Cluster) CoreList() []Core {
	cores := make([]Core, 0, c.TotalCores())
	for ni, node := range c.Nodes {
		for k := 0; k < node.Cores; k++ {
			cores = append(cores, Core{
				Node:  ni,
				Name:  node.Name + "/c" + strconv.Itoa(k),
				Speed: node.Speed,
			})
		}
	}
	return cores
}

// Core is one schedulable core slot.
type Core struct {
	Node  int
	Name  string
	Speed float64
}

// MIT returns the paper's home cluster: 114 dual-socket single-core
// Opteron 250 nodes (228 cores), 3 dual-socket dual-core Opteron 285
// replacement nodes (12 cores), and a 10 Gbit/s NFS fileserver. The head
// node is excluded from the worker pool (it hosts the master script and
// the diff/SVD stages).
func MIT() *Cluster {
	c := &Cluster{NFS: NFS{BandwidthMBps: 1250}}
	for i := 0; i < 114; i++ {
		c.Nodes = append(c.Nodes, Node{
			Name:          fmt.Sprintf("opt250-%03d", i),
			Cores:         2,
			Speed:         1.0,
			LocalDiskMBps: 60,
		})
	}
	for i := 0; i < 3; i++ {
		c.Nodes = append(c.Nodes, Node{
			Name:          fmt.Sprintf("opt285-%d", i),
			Cores:         4,
			Speed:         1.08, // 2.6 GHz vs 2.4 GHz baseline
			LocalDiskMBps: 60,
		})
	}
	return c
}

// MITAvailable returns the MIT cluster trimmed to the roughly 210 cores
// that were free during the paper's timing runs ("about 210 of the 240
// cores were available - the rest were in use by other users").
func MITAvailable(cores int) *Cluster {
	full := MIT()
	out := &Cluster{NFS: full.NFS}
	remaining := cores
	for _, n := range full.Nodes {
		if remaining <= 0 {
			break
		}
		take := n.Cores
		if take > remaining {
			take = remaining
		}
		n.Cores = take
		out.Nodes = append(out.Nodes, n)
		remaining -= take
	}
	return out
}
