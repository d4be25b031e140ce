// Package hpcmodel captures the platform-level characterizations the paper
// reports alongside the algorithm: memory scaling of state-vector versus
// density-matrix simulation (Figure 4), the simulation-time/memory growth
// of noisy runs (Figure 5), GPU parallel-shot saturation (Figure 8), the
// state-copy-cost table across six machines (Figure 10), and the HPC system
// inventory of Table 1.
//
// The published machines (Frontier, Summit, Perlmutter, A100/V100 nodes)
// are modeled from their documented parameters — this host cannot reproduce
// them physically, and DESIGN.md records the substitution. Host-measured
// numbers (internal/core's profiler) complement the models where hardware
// is available.
package hpcmodel

import (
	"fmt"
	"math"

	"tqsim/internal/statevec"
)

// FormatBytes renders a byte count with a binary-prefix unit (KiB … EiB),
// e.g. 17179869184 -> "16 GiB". Every memory estimate the planner, the
// facade's width diagnostics and the tqsimd admission controller print goes
// through here, so their numbers always agree textually.
func FormatBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	switch {
	case b >= 1024: // beyond EiB: scientific notation beats a 13-digit count
		return fmt.Sprintf("%.3g %s", b, units[i])
	case b == math.Trunc(b):
		return fmt.Sprintf("%.0f %s", b, units[i])
	default:
		return fmt.Sprintf("%.1f %s", b, units[i])
	}
}

// StatevectorBytes returns the memory of an n-qubit state vector: 16 * 2^n.
func StatevectorBytes(n int) float64 {
	return statevec.AmpBytes * math.Pow(2, float64(n))
}

// DensityMatrixBytes returns the memory of an n-qubit density matrix:
// 16 * 4^n.
func DensityMatrixBytes(n int) float64 {
	return statevec.AmpBytes * math.Pow(4, float64(n))
}

// MaxQubitsStatevector returns the widest register a memory budget holds as
// a state vector.
func MaxQubitsStatevector(budgetBytes float64) int {
	return int(math.Floor(math.Log2(budgetBytes / statevec.AmpBytes)))
}

// MaxQubitsDensityMatrix returns the widest register a memory budget holds
// as a density matrix.
func MaxQubitsDensityMatrix(budgetBytes float64) int {
	return int(math.Floor(math.Log2(budgetBytes/statevec.AmpBytes) / 2))
}

// Reference memory capacities for Figure 4's horizontal lines.
const (
	LaptopMemoryBytes    = 16e9      // 16 GB laptop
	ElCapitanMemoryBytes = 5.4375e15 // ~5.4 PB aggregate (El Capitan)
)

// System describes one HPC platform of Table 1.
type System struct {
	Name          string
	GPUs          int
	GPUModel      string
	GPUMemoryGB   float64 // per GPU
	CPUMemoryGB   float64 // per node
	UsableGPUs    int     // GPUs usable for balanced simulation
	UsableMemGBpG float64 // usable simulation memory per GPU (metadata deducted)
}

// Table1 lists the paper's three HPC systems.
func Table1() []System {
	return []System{
		{Name: "Frontier (ORNL)", GPUs: 4, GPUModel: "AMD MI250X",
			GPUMemoryGB: 128, CPUMemoryGB: 512, UsableGPUs: 4, UsableMemGBpG: 64},
		{Name: "Summit (ORNL)", GPUs: 6, GPUModel: "NVIDIA V100",
			GPUMemoryGB: 16, CPUMemoryGB: 512, UsableGPUs: 4, UsableMemGBpG: 8},
		{Name: "Perlmutter (NERSC)", GPUs: 4, GPUModel: "NVIDIA A100",
			GPUMemoryGB: 40, CPUMemoryGB: 256, UsableGPUs: 4, UsableMemGBpG: 32},
	}
}

// MemoryUtilization returns the fraction of a node's total memory
// (GPU + CPU) that baseline state-vector simulation can actually use — the
// §3.3 underutilization numbers (Frontier 25%, Summit 5.3%, Perlmutter
// 30.8% with the paper's accounting).
func (s System) MemoryUtilization() float64 {
	totalGB := float64(s.GPUs)*s.GPUMemoryGB + s.CPUMemoryGB
	usableGB := float64(s.UsableGPUs) * s.UsableMemGBpG
	return usableGB / totalGB
}

// CopyCostEntry is one bar of Figure 10: the state-copy cost of a machine,
// normalized to its own single-gate execution time.
type CopyCostEntry struct {
	Machine string
	Memory  string
	// Cost is the copy time in gate-equivalents.
	Cost float64
}

// Figure10Table returns the paper's six profiled systems. Server CPUs pay
// the most (slower DDR4 plus faster gate kernels); HBM2 GPUs the least.
func Figure10Table() []CopyCostEntry {
	return []CopyCostEntry{
		{Machine: "Nvidia RTX 3060 (desktop)", Memory: "12 GB GDDR5", Cost: 10},
		{Machine: "AMD Ryzen 3800x (desktop)", Memory: "16 GB DDR4", Cost: 18},
		{Machine: "Intel Core i7 (desktop)", Memory: "16 GB DDR4", Cost: 20},
		{Machine: "Intel Xeon 6138 (server)", Memory: "128 GB DDR4", Cost: 35},
		{Machine: "Intel Xeon 6130 (server)", Memory: "192 GB DDR4", Cost: 40},
		{Machine: "Nvidia Tesla V100 (server)", Memory: "16 GB HBM2", Cost: 5},
	}
}

// GPUShotModel models Figure 8: how many noisy shots an A100-class GPU can
// usefully run in parallel at a given register width. One shot of an
// n-qubit circuit occupies a utilization fraction U(n) of the device; the
// speedup of p parallel shots saturates at 1/U(n).
type GPUShotModel struct {
	// SaturationQubits is the width at which a single shot saturates the
	// device (≈ 21.6 for the A100 in the paper's measurements).
	SaturationQubits float64
	// MemoryBytes is the device memory (40 GB for the A100).
	MemoryBytes float64
}

// DefaultA100 returns the model fitted to the paper's A100-40GB results.
func DefaultA100() GPUShotModel {
	return GPUShotModel{SaturationQubits: 21.6, MemoryBytes: 40e9}
}

// Utilization returns the device fraction one n-qubit shot occupies.
func (m GPUShotModel) Utilization(n int) float64 {
	u := math.Pow(2, float64(n)-m.SaturationQubits)
	if u > 1 {
		return 1
	}
	return u
}

// Speedup returns the modeled speedup of p parallel shots over one shot at
// width n: min(p, 1/U(n)), clipped by memory capacity.
func (m GPUShotModel) Speedup(p, n int) float64 {
	if float64(p)*StatevectorBytes(n) > m.MemoryBytes {
		// Cannot host p state vectors at all.
		maxP := math.Floor(m.MemoryBytes / StatevectorBytes(n))
		if maxP < 1 {
			return 0
		}
		p = int(maxP)
	}
	limit := 1 / m.Utilization(n)
	if float64(p) < limit {
		return float64(p)
	}
	return limit
}

// MemoryUsage returns the amplitude memory of p parallel n-qubit shots.
func (m GPUShotModel) MemoryUsage(p, n int) float64 {
	return float64(p) * StatevectorBytes(n)
}

// NoisyScalingModel extrapolates Figure 5: noisy multi-shot simulation time
// and memory versus width, anchored at a host-measured (width, seconds)
// point. Time doubles per qubit (O(2^n) per gate, gate count linear in n
// for BV adds another linear factor).
type NoisyScalingModel struct {
	AnchorQubits  int
	AnchorSeconds float64
	// GateGrowth is the per-qubit multiplicative gate-count factor
	// (BV ≈ (n+…)/n ≈ linear; we fold it in as measured).
	GateGrowth float64
}

// SecondsAt extrapolates the simulation time at width n.
func (m NoisyScalingModel) SecondsAt(n int) float64 {
	dn := float64(n - m.AnchorQubits)
	growth := math.Pow(2, dn)
	if m.GateGrowth > 0 {
		growth *= math.Pow(m.GateGrowth, dn)
	}
	return m.AnchorSeconds * growth
}
