package tqsim

import (
	"context"

	"tqsim/internal/observable"
	"tqsim/internal/planner"
	"tqsim/internal/trajectory"
)

// Observable types, re-exported for the VQA workflow of the paper's §5.7.
type (
	// PauliString is a weighted tensor product of single-qubit Paulis.
	PauliString = observable.PauliString
	// Hamiltonian is a sum of Pauli strings.
	Hamiltonian = observable.Hamiltonian
	// EstimateStats summarizes a trajectory-ensemble estimate: mean,
	// standard deviation, and the paper's Equation 2 standard error.
	EstimateStats = observable.EstimateStats
)

// NewPauliString builds a weighted Pauli string from a spec like "ZZ" on
// the given qubits.
func NewPauliString(coef float64, spec string, qubits ...int) PauliString {
	return observable.NewPauliString(coef, spec, qubits...)
}

// TransverseFieldIsing builds H = -J sum Z_i Z_{i+1} - hx sum X_i on a ring.
func TransverseFieldIsing(n int, j, hx float64) *Hamiltonian {
	return observable.TransverseFieldIsing(n, j, hx)
}

// MaxCutHamiltonian builds the max-cut cost observable for a graph.
func MaxCutHamiltonian(g *Graph) *Hamiltonian {
	return observable.MaxCutHamiltonian(g.N, g.Edges)
}

// ExactExpectation returns <psi|H|psi> on the circuit's noise-free final
// state. Fully deterministic: no noise, no sampling.
func ExactExpectation(c *Circuit, h *Hamiltonian) float64 {
	return h.ExpectationState(trajectory.IdealState(c))
}

// EstimateExpectationBaseline estimates tr(rho H) with the conventional
// multi-shot simulator: one exact expectation per trajectory, averaged.
// The estimate is a pure function of (circuit, noise, shots, Options.Seed):
// repeated runs reproduce it bit-for-bit.
func EstimateExpectationBaseline(c *Circuit, m *NoiseModel, h *Hamiltonian, shots int, opt Options) (EstimateStats, error) {
	res, err := trajectory.RunExpectation(c, m, h, shots, trajectory.Options{Seed: opt.Seed})
	if err != nil {
		return EstimateStats{}, err
	}
	return res.Stats, nil
}

// EstimateExpectationTQSim estimates tr(rho H) with the tree simulator:
// DCP plans the tree, each leaf contributes one exact expectation. The
// estimate is a pure function of (circuit, noise, shots, Options) —
// identical at any Options.Parallelism, like the tree histograms, because
// leaf RNG streams are keyed by DFS sequence numbers. Backend "auto"
// resolves to the dense reference engine here: observables need dense leaf
// states, so the planner's polynomial routes do not apply.
func EstimateExpectationTQSim(c *Circuit, m *NoiseModel, h *Hamiltonian, shots int, opt Options) (EstimateStats, *TreeResult, error) {
	b := opt.plannerBudget()
	b.Observable = true
	r, err := planner.Resolve(PlanDCP(c, m, shots, opt), m, opt.backendName(), b)
	if err != nil {
		return EstimateStats{}, nil, err
	}
	ex, err := r.Executor(context.Background(), opt.Seed, nil)
	if err != nil {
		return EstimateStats{}, nil, err
	}
	res, err := ex.RunExpectation(r.Plan, h)
	if err != nil {
		return EstimateStats{}, nil, err
	}
	return res.Stats, res.Run, nil
}
