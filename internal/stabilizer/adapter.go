// Backend adapts the CHP tableau engine to the tree executor's gate-apply
// interface — the hybrid Clifford dispatcher of the backend registry. States
// reachable from |0...0> through Clifford gates are shadowed by tableaux
// (O(n) per gate, O(n^2/64) per tree copy, O(n^2) per sample); the first
// non-Clifford gate, noise channel, or observable on a state triggers a
// one-time tableau -> state-vector handoff and execution continues on the
// dense kernels. Dense-only states pass straight through, so the adapter is
// semantically identical to PlainBackend on arbitrary circuits and
// polynomially cheap on Clifford prefixes.
package stabilizer

import (
	"sync/atomic"

	"tqsim/internal/core"
	"tqsim/internal/gate"
	"tqsim/internal/noise"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// hybridStats counts fast-path vs dense work. It is shared (by pointer)
// between a backend and its forks, so parallel tree runs aggregate into
// the instance the caller holds; atomics keep the cross-worker increments
// race-free.
type hybridStats struct {
	clifford atomic.Int64
	dense    atomic.Int64
	handoffs atomic.Int64
}

// Backend implements core.Backend, core.Forker and core.StateShadow.
type Backend struct {
	// shadows maps executor state buffers to their live tableaux. Keys are
	// stable: the executor reuses one buffer per tree level and never
	// reallocates amplitudes mid-run.
	shadows map[*statevec.State]*Tableau
	stats   *hybridStats
}

// NewBackend returns an empty hybrid stabilizer backend.
func NewBackend() *Backend {
	return &Backend{
		shadows: make(map[*statevec.State]*Tableau),
		stats:   &hybridStats{},
	}
}

// Name implements core.Backend.
func (b *Backend) Name() string { return "stabilizer" }

// Fork implements core.Forker: shadow maps are per-worker state; the
// dispatch counters stay shared so the caller's instance sees the totals.
func (b *Backend) Fork() core.Backend {
	return &Backend{shadows: make(map[*statevec.State]*Tableau), stats: b.stats}
}

// CliffordGates returns the number of gate and noise applications absorbed
// by tableaux; DenseGates the number applied to amplitudes; Handoffs the
// number of tableau -> state-vector materializations. The ratio quantifies
// how much of a workload ran on the fast path. Counts aggregate across
// parallel workers.
func (b *Backend) CliffordGates() int64 { return b.stats.clifford.Load() }

// DenseGates returns the dense kernel application count; see CliffordGates.
func (b *Backend) DenseGates() int64 { return b.stats.dense.Load() }

// Handoffs returns the materialization count; see CliffordGates.
func (b *Backend) Handoffs() int64 { return b.stats.handoffs.Load() }

// Apply implements core.Backend: Clifford gates land on the state's tableau
// when one is live; anything else materializes first, then runs dense.
func (b *Backend) Apply(s *statevec.State, g gate.Gate) {
	if t := b.shadows[s]; t != nil {
		if err := t.Apply(g); err == nil {
			b.stats.clifford.Add(1)
			return
		}
		b.materialize(s, t)
	}
	s.Apply(g)
	b.stats.dense.Add(1)
}

// Flush implements core.Backend. Per the StateShadow contract it
// materializes the dense amplitudes of a shadowed state; for dense states it
// is a no-op (gates were applied immediately).
func (b *Backend) Flush(s *statevec.State) {
	if t := b.shadows[s]; t != nil {
		b.materialize(s, t)
	}
}

func (b *Backend) materialize(s *statevec.State, t *Tableau) {
	t.WriteState(s)
	delete(b.shadows, s)
	b.stats.handoffs.Add(1)
}

// BindZero implements core.StateShadow: the run's root is |0...0>, the one
// state a fresh tableau represents by construction. Prior-run bookkeeping
// is dropped (state buffers from finished runs are garbage).
func (b *Backend) BindZero(s *statevec.State) {
	clear(b.shadows)
	b.shadows[s] = New(s.NumQubits())
}

// CopyState implements core.StateShadow. Copying a shadowed state clones the
// tableau and skips the dense copy entirely — the dense buffer of dst is
// stale until materialized, which only StateShadow-aware paths observe.
func (b *Backend) CopyState(dst, src *statevec.State) {
	if t := b.shadows[src]; t != nil {
		if existing := b.shadows[dst]; existing != nil {
			existing.CopyFrom(t)
		} else {
			b.shadows[dst] = t.Clone()
		}
		return
	}
	delete(b.shadows, dst)
	dst.CopyFrom(src)
}

// ApplyNoise implements core.StateShadow: Pauli (depolarizing) channels are
// absorbed into a live tableau — stabilizer states stay stabilizer under
// Pauli insertions — through the dense engines' own draw (noise.Model.Draw),
// so trajectories that later hand off to dense kernels are bit-for-bit the
// trajectories the plain backend would have run. Dense states and
// non-Pauli models report handled=false, consuming no randomness, and take
// the executor's dense path.
func (b *Backend) ApplyNoise(s *statevec.State, qubits []int, m *noise.Model, r *rng.RNG) (int, bool) {
	t := b.shadows[s]
	if t == nil || !m.PauliOnly() {
		return 0, false
	}
	ops := m.Draw(qubits, r, (*paulis)(t))
	if ops > 0 {
		b.stats.clifford.Add(int64(ops))
	}
	return ops, true
}

// SampleState implements core.StateShadow: shadowed leaves sample by tableau
// measurement in O(n^2) without touching amplitudes; dense leaves sample the
// usual cumulative scan. Tableau measurement collapses the shadow, which is
// safe: the executor overwrites leaf buffers before reuse.
func (b *Backend) SampleState(s *statevec.State, r *rng.RNG) uint64 {
	if t := b.shadows[s]; t != nil {
		return t.MeasureAll(r)
	}
	return s.Sample(r)
}

// Compile-time interface checks.
var (
	_ core.Backend     = (*Backend)(nil)
	_ core.Forker      = (*Backend)(nil)
	_ core.StateShadow = (*Backend)(nil)
)

func init() {
	core.Register("stabilizer", func() core.Backend { return NewBackend() })
}
