// Package core implements the paper's primary contribution: the tree-based
// noisy quantum circuit simulator (TQSim). A partition.Plan describes the
// simulation tree — subcircuit boundaries plus the per-level arity sequence
// (A0, ..., Ak-1) — and the Executor walks the tree depth-first, reusing
// each node's intermediate state across all of its children instead of
// recomputing the shared prefix per shot, exactly as in Figures 2c and 7.
//
// The executor is backend-agnostic (Section 5.2): anything implementing
// Backend can apply gates, so the same scheduler drives the plain
// state-vector engine and the fusion ("GPU-like") engine.
package core

import (
	"tqsim/internal/gate"
	"tqsim/internal/noise"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// Backend applies gates to state vectors. Implementations may buffer and
// fuse gates; Flush must force all pending work onto the state, and is
// called before any operation that observes amplitudes (noise channels,
// sampling, state copies).
type Backend interface {
	// Name identifies the backend in reports.
	Name() string
	// Apply schedules gate g onto state s.
	Apply(s *statevec.State, g gate.Gate)
	// Flush applies any buffered gates to s.
	Flush(s *statevec.State)
}

// Forker is implemented by stateful backends that need one instance per
// worker under parallel tree execution. Stateless backends may ignore it.
type Forker interface {
	// Fork returns a fresh backend equivalent to this one for use by one
	// worker goroutine.
	Fork() Backend
}

// StateShadow is implemented by backends that track some states in a cheaper
// hidden representation than dense amplitudes — e.g. the stabilizer backend
// shadows Clifford-reachable states with CHP tableaux, turning O(2^n) gate
// and copy work into O(n^2). The executor routes state lifecycle events
// (zero-initialization, inter-node copies, leaf sampling) through this
// interface so a shadowed state is only materialized when something truly
// needs amplitudes (a non-Clifford gate, a noise channel, an observable).
//
// Contract: for a StateShadow backend, Flush(st) must materialize st's dense
// amplitudes (dropping the shadow); the executor calls it before noise
// channels and observable evaluation. States not bound via BindZero or
// CopyState are plain dense states and all methods must degrade to the
// dense behavior for them.
type StateShadow interface {
	// BindZero declares st to be |0...0> and may begin shadowing it. It is
	// called once per run per worker on the worker's root state, and resets
	// any shadow bookkeeping from prior runs of the same backend instance.
	BindZero(st *statevec.State)
	// CopyState overwrites dst with src, shadow included. When src is
	// shadowed the implementation may skip the dense copy entirely.
	CopyState(dst, src *statevec.State)
	// SampleState draws one measurement outcome from st without forcing a
	// dense materialization when a shadow can sample directly.
	SampleState(st *statevec.State, r *rng.RNG) uint64
	// ApplyNoise applies the model's channels following a gate on qubits
	// to the shadow representation when both the shadow is live and the
	// model is expressible there (e.g. Pauli channels on a tableau),
	// returning the operator count and handled=true. handled=false means no
	// randomness was consumed and the executor must materialize and run the
	// dense channels. Implementations draw through noise.Model.Draw, so a
	// later materialization continues the identical trajectory.
	ApplyNoise(st *statevec.State, qubits []int, m *noise.Model, r *rng.RNG) (ops int, handled bool)
}

// PlainBackend applies every gate immediately through the state-vector
// fast-path kernels. It is stateless, so one value serves any number of
// workers. It is the Qulacs-equivalent CPU backend.
type PlainBackend struct{}

// Name implements Backend.
func (PlainBackend) Name() string { return "statevec" }

// Apply implements Backend.
func (PlainBackend) Apply(s *statevec.State, g gate.Gate) { s.Apply(g) }

// Flush implements Backend.
func (PlainBackend) Flush(*statevec.State) {}
