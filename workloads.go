package tqsim

import (
	"tqsim/internal/graphs"
	"tqsim/internal/workloads"
)

// Graph is an undirected graph for QAOA max-cut workloads.
type Graph = graphs.Graph

// QAOAParams are the variational angles of one QAOA layer.
type QAOAParams = workloads.QAOAParams

// Benchmark couples a suite circuit with its class label.
type Benchmark = workloads.Bench

// Workload generators — the paper's Table 2 benchmark classes. Every
// generator is a pure function of its arguments: the same (width, inputs,
// seed) always yields the gate-identical circuit, so seeded workloads can be
// regenerated on any host (tqsimd's named jobs and the decision-table
// tests rely on this).

// AdderCircuit builds a Cuccaro ripple-carry adder over nBits-bit operands
// (width 2*nBits+2), inputs loaded classically.
func AdderCircuit(nBits int, a, b uint64) *Circuit {
	return workloads.Adder(nBits, a, b, -1)
}

// BVCircuit builds a Bernstein-Vazirani circuit with the given secret.
func BVCircuit(width int, secret uint64) *Circuit {
	return workloads.BV(width, secret)
}

// MulCircuit builds a Draper quantum multiplier for na- and nb-bit operands
// (width 2*(na+nb)+1).
func MulCircuit(na, nb int, a, b uint64) *Circuit {
	return workloads.Mul(na, nb, a, b, true, -1)
}

// QFTCircuit builds a quantum Fourier transform over a structured input.
func QFTCircuit(width int) *Circuit { return workloads.QFT(width, true) }

// QPECircuit builds quantum phase estimation with the given counting-qubit
// count (width counting+1) estimating phase (in turns).
func QPECircuit(counting int, phase float64) *Circuit {
	return workloads.QPE(counting, phase, true, -1)
}

// QAOACircuit builds the max-cut QAOA ansatz for a graph.
func QAOACircuit(g *Graph, layers []QAOAParams) *Circuit {
	return workloads.QAOA(g, layers)
}

// QSCCircuit builds a supremacy-style random circuit, fully determined by
// (width, depth, seed).
func QSCCircuit(width, depth int, seed uint64) *Circuit {
	return workloads.QSC(width, depth, seed)
}

// Clifford-heavy workloads — the scenario class the stabilizer backend's
// polynomial fast path unlocks at widths the dense engines cannot reach.

// GHZCircuit builds the width-qubit GHZ preparation (H + CX chain).
func GHZCircuit(width int) *Circuit { return workloads.GHZ(width) }

// CliffordCircuit builds a seeded random Clifford circuit: depth layers of
// random one-qubit Cliffords plus a random CX/CZ/SWAP pairing. The gate
// sequence is a pure function of (width, depth, seed).
func CliffordCircuit(width, depth int, seed uint64) *Circuit {
	return workloads.Clifford(width, depth, seed)
}

// CliffordPrefixCircuit builds a random Clifford prefix followed by a short
// non-Clifford tail — the hybrid dispatcher's handoff stress shape. The
// gate sequence is a pure function of (width, cliffordDepth, seed).
func CliffordPrefixCircuit(width, cliffordDepth int, seed uint64) *Circuit {
	return workloads.CliffordPrefix(width, cliffordDepth, seed)
}

// QVCircuit builds a Quantum-Volume model circuit at the canonical depth,
// fully determined by (width, seed).
func QVCircuit(width int, seed uint64) *Circuit {
	return workloads.QV(width, workloads.QVDefaultDepth, false, seed)
}

// BenchmarkSuite generates the full 48-circuit Table 2 suite; maxQubits > 0
// filters wider circuits (13 reproduces the artifact's default subset).
// The suite is fixed: repeated calls regenerate gate-identical circuits.
func BenchmarkSuite(maxQubits int) []Benchmark { return workloads.Suite(maxQubits) }

// BenchmarkByName builds only the named suite circuit (e.g. "qft_n14"), a
// fresh one per call that the caller owns; an unknown name is a map miss
// that returns nil.
func BenchmarkByName(name string) *Circuit { return workloads.ByName(name) }

// Graph constructors for the QAOA workloads (Figure 18's three families).

// RandomGraph returns a seeded Erdős–Rényi G(n, p) graph — the same
// (n, p, seed) always yields the same edge set.
func RandomGraph(n int, p float64, seed uint64) *Graph { return graphs.Random(n, p, seed) }

// StarGraph returns the star graph on n vertices.
func StarGraph(n int) *Graph { return graphs.Star(n) }

// Regular3Graph returns a 3-regular circulant graph on n (even) vertices.
func Regular3Graph(n int) *Graph { return graphs.Regular3(n) }

// ExpectedCut computes the expected max-cut value of a shot histogram —
// the QAOA cost function of Figure 18. Deterministic in its inputs: no
// sampling happens here.
func ExpectedCut(g *Graph, counts map[uint64]int) float64 {
	return workloads.QAOAExpectedCutCounts(g, counts)
}
