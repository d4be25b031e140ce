package cluster

import (
	"math"

	"tqsim/internal/circuit"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/statevec"
)

// NetworkConfig parameterizes the interconnect and node compute rate of the
// modeled cluster. Defaults approximate a 100 Gb/s fat-tree with
// dual-socket Xeon nodes, the class of system the paper's Section 5.3 uses.
type NetworkConfig struct {
	// Nodes is the node count (power of two).
	Nodes int
	// LatencySec is the per-message-round network latency.
	LatencySec float64
	// BandwidthBytesPerSec is the per-link bandwidth.
	BandwidthBytesPerSec float64
	// GateSecPerAmp is one node's kernel time per amplitude per gate.
	GateSecPerAmp float64
	// CopySecPerByte is node-local memory copy time per byte.
	CopySecPerByte float64
}

// DefaultNetwork returns the calibrated defaults used by the Figure 13
// reproduction.
func DefaultNetwork(nodes int) NetworkConfig {
	return NetworkConfig{
		Nodes:                nodes,
		LatencySec:           5e-6,   // 5 us MPI round
		BandwidthBytesPerSec: 1.2e10, // ~100 Gb/s effective
		GateSecPerAmp:        2.5e-10,
		CopySecPerByte:       1.5e-10,
	}
}

// globalQubits returns log2(nodes).
func (c NetworkConfig) globalQubits() int { return log2floor(max(c.Nodes, 1)) }

// shardBytes returns one node's share of an n-qubit state.
func (c NetworkConfig) shardBytes(n int) float64 {
	return float64(statevec.StateBytes(n - c.globalQubits()))
}

// CostReport prices one workload on the modeled cluster.
type CostReport struct {
	Nodes int
	// ComputeSec, CommSec and CopySec decompose the modeled critical-path
	// time of one run.
	ComputeSec, CommSec, CopySec float64
	// TotalSec is their sum.
	TotalSec float64
	// BytesPerNode is the modeled traffic each node sends.
	BytesPerNode float64
	// GlobalGateShare is the fraction of gate applications touching
	// global qubits.
	GlobalGateShare float64
}

// gateCost prices a single gate application (with its expected noise
// insertions) at width n over the configured node count. Noise channels on
// the same qubits inherit the gate's locality.
func (c NetworkConfig) gateCost(n int, qubits []int, expectedNoiseOps float64) (compute, comm float64, global bool) {
	shardAmps := math.Pow(2, float64(n-c.globalQubits()))
	perKernel := shardAmps * c.GateSecPerAmp
	kernels := 1 + expectedNoiseOps
	compute = perKernel * kernels
	localBoundary := n - c.globalQubits()
	for _, q := range qubits {
		if q >= localBoundary {
			global = true
		}
	}
	if global {
		comm = (c.LatencySec + c.shardBytes(n)/c.BandwidthBytesPerSec) * kernels
	}
	return compute, comm, global
}

// EstimateShot prices one noisy trajectory of the circuit.
func (c NetworkConfig) EstimateShot(ckt *circuit.Circuit, m *noise.Model) CostReport {
	rep := CostReport{Nodes: c.Nodes}
	globalGates := 0
	for _, g := range ckt.Gates {
		exp := m.GateErrorProb(g)
		// Expected noise term: e times the number of channels drawn after
		// the gate (TrajectoryOps). It counts channels, not operators: a
		// two-qubit Pauli pair or a damping channel on each operand
		// applies more than one.
		noiseOps := clamp01(exp) * float64(m.TrajectoryOps(g))
		comp, comm, global := c.gateCost(ckt.NumQubits, g.Qubits, noiseOps)
		rep.ComputeSec += comp
		rep.CommSec += comm
		if global {
			globalGates++
			rep.BytesPerNode += c.shardBytes(ckt.NumQubits)
		}
	}
	if len(ckt.Gates) > 0 {
		rep.GlobalGateShare = float64(globalGates) / float64(len(ckt.Gates))
	}
	rep.TotalSec = rep.ComputeSec + rep.CommSec
	return rep
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// EstimateBaseline prices an N-shot baseline run: N independent
// trajectories plus one state re-initialization each.
func (c NetworkConfig) EstimateBaseline(ckt *circuit.Circuit, m *noise.Model, shots int) CostReport {
	shot := c.EstimateShot(ckt, m)
	shardBytes := c.shardBytes(ckt.NumQubits)
	rep := CostReport{
		Nodes:           c.Nodes,
		ComputeSec:      shot.ComputeSec * float64(shots),
		CommSec:         shot.CommSec * float64(shots),
		CopySec:         shardBytes * c.CopySecPerByte * float64(shots),
		BytesPerNode:    shot.BytesPerNode * float64(shots),
		GlobalGateShare: shot.GlobalGateShare,
	}
	rep.TotalSec = rep.ComputeSec + rep.CommSec + rep.CopySec
	return rep
}

// EstimatePlan prices a TQSim simulation-tree run: every subcircuit
// instance pays its own gate compute/comm, and every node of the tree pays
// one distributed state copy (node-local on each cluster node).
func (c NetworkConfig) EstimatePlan(plan *partition.Plan, m *noise.Model) CostReport {
	rep := CostReport{Nodes: c.Nodes}
	subs := plan.Subcircuits()
	inst := plan.Instances()
	shardBytes := c.shardBytes(plan.Circuit.NumQubits)
	for i, sc := range subs {
		shot := c.EstimateShot(sc, m)
		k := float64(inst[i])
		rep.ComputeSec += shot.ComputeSec * k
		rep.CommSec += shot.CommSec * k
		rep.BytesPerNode += shot.BytesPerNode * k
		rep.CopySec += shardBytes * c.CopySecPerByte * k
	}
	rep.TotalSec = rep.ComputeSec + rep.CommSec + rep.CopySec
	return rep
}

// StrongScalingPoint is one (nodes, speedup) sample of Figure 13a.
type StrongScalingPoint struct {
	Nodes    int
	TotalSec float64
	Speedup  float64 // versus the 1-node configuration
}

// StrongScaling sweeps node counts for a fixed workload and reports modeled
// speedups versus one node.
func StrongScaling(ckt *circuit.Circuit, m *noise.Model, shots int, nodeCounts []int) []StrongScalingPoint {
	var out []StrongScalingPoint
	var base float64
	for i, nodes := range nodeCounts {
		cfg := DefaultNetwork(nodes)
		rep := cfg.EstimateBaseline(ckt, m, shots)
		if i == 0 {
			base = rep.TotalSec
		}
		out = append(out, StrongScalingPoint{
			Nodes:    nodes,
			TotalSec: rep.TotalSec,
			Speedup:  base / rep.TotalSec,
		})
	}
	return out
}
