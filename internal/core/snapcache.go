package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tqsim/internal/lru"
	"tqsim/internal/partition"
	"tqsim/internal/statevec"
)

// SnapshotCache is a byte-bounded, cross-job cache of ideal boundary
// states — the promotion of PrefixSnapshots from sweep-scoped to
// service-scoped reuse. Entries are keyed per boundary by the structural
// digest of the gate prefix before it (circuit.PrefixDigests), not by whole
// plans: the ideal state at gate boundary b is a pure function of (width,
// gates[0:b]), so any two jobs whose circuits share a gate prefix share the
// cached state at every common plan boundary, even when their suffixes,
// names, noise points, shot counts or deeper bounds differ. ForPlan
// assembles a plan's full PrefixSnapshots set from cached states, computing
// and inserting only the missing boundaries.
//
// Cached states are read-only shared: the executor's prefix-reuse path
// never mutates them (the same contract the sweep engine established), so
// one state may back any number of concurrent runs. Eviction only drops the
// cache's reference — snapshot sets already handed out stay valid.
//
// The hit/miss counters are served in tqsimd's /v1/stats as snapshot_hits /
// snapshot_misses; they count boundary states, not plans, so a 4-level plan
// assembled entirely from cache books 4 hits.
type SnapshotCache struct {
	mu     sync.Mutex
	states *lru.Cache[*statevec.State] // cost = state bytes

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewSnapshotCache returns a cache holding at most maxBytes of boundary
// states (least-recently-used states are evicted beyond it). maxBytes <= 0
// selects an effectively unbounded cache.
func NewSnapshotCache(maxBytes int64) *SnapshotCache {
	return &SnapshotCache{states: lru.New[*statevec.State](0, maxBytes)}
}

// Hits returns the number of boundary states served from cache.
func (sc *SnapshotCache) Hits() uint64 { return sc.hits.Load() }

// Misses returns the number of boundary states that had to be computed.
func (sc *SnapshotCache) Misses() uint64 { return sc.misses.Load() }

// Bytes returns the resident state bytes.
func (sc *SnapshotCache) Bytes() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.states.Cost()
}

// Len returns the resident state count.
func (sc *SnapshotCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.states.Len()
}

// ForPlan returns a PrefixSnapshots set for the plan, serving every
// boundary state it can from cache and computing only the missing ones
// (each computed state is inserted for the next job). The assembled set
// satisfies Matches(plan) and is bitwise equal to NewPrefixSnapshots(plan):
// gates are applied in the same per-gate order with the same plain dense
// kernels, so reuse stays histogram-preserving. Safe for concurrent use;
// two racing callers may compute the same boundary twice, but the states
// are deterministic, so either insert is correct.
func (sc *SnapshotCache) ForPlan(plan *partition.Plan) (*PrefixSnapshots, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	n := plan.Circuit.NumQubits
	if n > statevec.MaxQubits {
		return nil, fmt.Errorf("core: %d qubits exceeds the %d-qubit dense snapshot limit", n, statevec.MaxQubits)
	}
	cuts := append(append([]int(nil), plan.Bounds...), plan.Circuit.Len())
	keys := plan.Circuit.PrefixDigests(cuts)

	states := make([]*statevec.State, len(cuts))
	sc.mu.Lock()
	for i, key := range keys {
		states[i], _ = sc.states.Get(key)
	}
	sc.mu.Unlock()

	// Compute the gaps outside the lock: each missing boundary continues
	// from the nearest earlier state (cached ones are read-only, so the
	// accumulator clones before extending past them).
	var st *statevec.State
	computed := false
	prev := 0
	for i, cut := range cuts {
		if states[i] != nil {
			sc.hits.Add(1)
			st, prev = nil, cut
			continue
		}
		sc.misses.Add(1)
		computed = true
		if st == nil {
			if i == 0 {
				st = statevec.NewZero(n)
			} else {
				st = states[i-1].Clone()
			}
		}
		applyIdeal(st, plan.Circuit.Gates[prev:cut])
		states[i] = st.Clone()
		prev = cut
	}
	if computed {
		sc.insert(keys, states)
	}

	return &PrefixSnapshots{n: n, bounds: append([]int(nil), plan.Bounds...), states: states}, nil
}

// insert adds the boundary states under their keys, refreshing ones that
// raced in meanwhile, then evicts least-recently-used states over the byte
// cap — never the set just inserted, which its caller is about to run on.
func (sc *SnapshotCache) insert(keys []string, states []*statevec.State) {
	per := SnapshotBytes(1, states[0].NumQubits())
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, key := range keys {
		if _, ok := sc.states.Get(key); !ok {
			sc.states.Set(key, states[i], per)
		}
	}
	sc.states.Trim(len(keys))
}
