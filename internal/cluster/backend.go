// Package cluster implements the multi-node substrate of the paper's
// Section 5.3 (the qHiPSTER role): a "cluster" backend that runs a state
// vector as if its 2^n amplitudes were sharded over P (power-of-two) nodes,
// plus an interconnect cost model that prices a gate stream's compute and
// communication with configurable node and network parameters, which is how
// a single machine reproduces the *shape* of 32-node scaling (Figure 13).
//
// Shard i owns the i-th contiguous 2^(n-g) amplitudes of the little-endian
// array, g = log2(P), so qubits [n-g, n) are global: a gate on one of them
// needs amplitudes from other shards. The backend applies every gate with
// the single-node statevec kernels — the numerics are the dense engine's,
// bit for bit — and books the exchange a real cluster would make for it
// (Traffic); which exchange that is depends only on the register width, the
// shard count and how many of the gate's qubits are global.
package cluster

import (
	"math/bits"
	"sync/atomic"

	"tqsim/internal/core"
	"tqsim/internal/gate"
	"tqsim/internal/statevec"
)

// DefaultNodes is the shard count used when none is configured — the
// smallest cluster with two levels of global qubits.
const DefaultNodes = 4

// log2floor returns floor(log2(v)) for v >= 1.
func log2floor(v int) int { return bits.Len(uint(v)) - 1 }

// Shards is the shard count a request for the given node count gets on an
// n-qubit register: a request <= 0 means DefaultNodes, others round down to
// a power of two (as a scheduler places shards), and every shard keeps at
// least one local qubit, so a narrow register shards over fewer nodes (down
// to one, plain single-node application).
func Shards(requested, qubits int) int {
	if requested <= 0 {
		requested = DefaultNodes
	}
	return 1 << max(min(log2floor(requested), qubits-1), 0)
}

// exchange returns the traffic a one- or two-qubit gate books on an n-qubit
// register split into nodes shards when global of its operands are global
// qubits. One global qubit pairs shards whose index differs in that bit, and
// each partner sends its whole shard to the other; two global qubits make an
// all-to-all inside each group of four shards. A local gate books nothing.
func exchange(n, nodes, global int) (bytes, exchanges int64) {
	shard := statevec.StateBytes(n - log2floor(nodes))
	switch global {
	case 1:
		return int64(nodes) * shard, int64(nodes / 2)
	case 2:
		return int64(nodes/4) * 3 * shard, int64(nodes/4) * 3
	}
	return 0, 0
}

// Backend implements core.Backend for the sharded engine. It holds no
// per-state data, so one instance serves every worker of a parallel run.
type Backend struct {
	nodes int
	// bytes and exchanges total the traffic booked by every gate applied
	// through this instance.
	bytes, exchanges atomic.Int64
}

// NewBackend returns a cluster backend sharding each state as Shards(nodes,
// width) decides.
func NewBackend(nodes int) *Backend { return &Backend{nodes: nodes} }

// Name implements core.Backend.
func (b *Backend) Name() string { return "cluster" }

// Apply implements core.Backend: the gate runs through the statevec kernels
// and its exchange is booked. Identity gates and gates wider than two qubits
// (a real deployment decomposes them first) book nothing.
func (b *Backend) Apply(s *statevec.State, g gate.Gate) {
	s.Apply(g)
	if g.Kind == gate.KindI || g.Arity() > 2 {
		return
	}
	n := s.NumQubits()
	nodes := Shards(b.nodes, n)
	local, global := n-log2floor(nodes), 0
	for _, q := range g.Qubits {
		if q >= local {
			global++
		}
	}
	if bytes, exch := exchange(n, nodes, global); bytes != 0 {
		b.bytes.Add(bytes)
		b.exchanges.Add(exch)
	}
}

// Flush implements core.Backend: gates apply immediately.
func (b *Backend) Flush(*statevec.State) {}

// Traffic returns the communication accounting across every gate this
// backend has applied, parallel workers included: total bytes exchanged
// between shards and pairwise exchange rounds, cumulative over the
// backend's lifetime.
func (b *Backend) Traffic() (bytesSent, exchanges int64) {
	return b.bytes.Load(), b.exchanges.Load()
}

var _ core.Backend = (*Backend)(nil)

func init() {
	core.Register("cluster", func() core.Backend { return NewBackend(0) })
}
