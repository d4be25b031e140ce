package core

import (
	"fmt"
	"slices"

	"tqsim/internal/gate"
	"tqsim/internal/partition"
	"tqsim/internal/statevec"
)

// PrefixSnapshots is the ideal spine of a plan: the noise-free state at
// every subcircuit boundary. Under a Pauli-only noise model a trajectory's
// state is bitwise equal to the ideal evolution until the first channel
// actually fires, so a tree node whose parent is still on the ideal
// trajectory — and whose segment draws no firing channel — needs no gate
// work at all: its state IS the boundary snapshot. Every eligible dense run
// builds one for itself (Executor.runTree); because the snapshots depend
// only on (circuit, bounds), a caller running many plans over the same
// boundaries — the noise points and repeats of a sweep, the batches of a
// tqsimd job — can build the set once and hand it to each run through
// Executor.Prefix.
//
// Snapshots are computed once with the plain dense kernels in the same
// per-gate order the executor applies them, so a snapshot is bitwise equal
// to the state a no-fire trajectory would have computed — the property that
// makes reuse histogram-preserving. They are read-only after construction
// and safe to share across worker goroutines and concurrent runs.
type PrefixSnapshots struct {
	n      int
	bounds []int
	// states[L] is the ideal state after subcircuits 0..L (len = levels).
	states []*statevec.State
}

// NewPrefixSnapshots computes the boundary snapshots for a plan. The cost is
// one ideal sweep over the circuit (the same work as a single noise-free
// trajectory). Widths beyond the dense limit error out — callers gate reuse
// to dense plans anyway.
func NewPrefixSnapshots(plan *partition.Plan) (*PrefixSnapshots, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	n := plan.Circuit.NumQubits
	if n > statevec.MaxQubits {
		return nil, fmt.Errorf("core: %d qubits exceeds the %d-qubit dense snapshot limit", n, statevec.MaxQubits)
	}
	ps, _ := buildSpine(plan)
	return ps, nil
}

// buildSpine computes the snapshots of a validated plan of dense width and
// returns the kernel applications that cost: the executor books them when a
// run builds its own spine.
func buildSpine(plan *partition.Plan) (*PrefixSnapshots, int64) {
	n := plan.Circuit.NumQubits
	ps := &PrefixSnapshots{n: n, bounds: append([]int(nil), plan.Bounds...)}
	st := statevec.NewZero(n)
	var ops int64
	for _, sc := range plan.Subcircuits() {
		ops += applyIdeal(st, sc.Gates)
		ps.states = append(ps.states, st.Clone())
	}
	return ps, ops
}

// applyIdeal applies a gate segment with no noise, through the plain dense
// kernels in the per-gate order runSegment uses, and returns the kernel
// applications. Spine states, cached boundary states and quiet children are
// all computed here, which is what makes each bitwise equal to the state a
// trajectory that fires nothing computes.
func applyIdeal(st *statevec.State, gs []gate.Gate) int64 {
	var ops int64
	for _, g := range gs {
		if g.Kind != gate.KindI {
			st.Apply(g)
			ops++
		}
	}
	return ops
}

// Matches reports whether the snapshots were built for this plan's circuit
// width and subcircuit boundaries — the executor's guard against a stale
// cache entry being applied to a structurally different plan.
func (ps *PrefixSnapshots) Matches(plan *partition.Plan) bool {
	return ps != nil && ps.n == plan.Circuit.NumQubits &&
		len(ps.states) == plan.Levels() && slices.Equal(ps.bounds, plan.Bounds)
}

// SnapshotBytes returns the footprint of a prefix-snapshot set for a tree
// of the given level count and width: one dense state per level — what the
// snapshot cache charges per set. A run's own accounting of the spine is
// DensePeakBytes'.
func SnapshotBytes(levels, numQubits int) int64 {
	return int64(levels) * statevec.StateBytes(numQubits)
}

// PrefixKey is the cache identity of a plan's snapshots: two plans over the
// same circuit share snapshots exactly when their boundary lists are equal.
// The sweep engine keys its snapshot cache by (circuit, PrefixKey).
func PrefixKey(plan *partition.Plan) string {
	return fmt.Sprint(plan.Circuit.NumQubits, plan.Bounds)
}
