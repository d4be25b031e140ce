package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tqsim/internal/lru"
	"tqsim/internal/partition"
	"tqsim/internal/statevec"
)

// SnapshotCache is a byte-bounded, cross-job cache of ideal spine states,
// and the one form in which a spine reaches a run from outside it
// (Executor.Spines): a sweep hands every point its own unbounded cache,
// tqsimd every job and sweep its daemon-wide one. Entries are keyed per
// spine cut (plan boundaries and interior checkpoints alike) by the
// structural digest of the gate prefix before it (circuit.PrefixDigests),
// not by whole plans: the ideal state at gate cut b is a pure function of
// (width, gates[0:b]), so any two jobs whose circuits share a gate prefix
// share the cached state at every common cut, even when their suffixes,
// names, noise points, shot counts or deeper bounds differ. ForPlan
// assembles a plan's spine from cached states, computing and inserting only
// the missing ones.
//
// Cached states are read-only shared: the executor's reuse path never
// mutates them, so one state may back any number of concurrent runs.
// Eviction only drops the cache's reference — spines already handed out
// stay valid.
//
// The hit/miss counters are served in tqsimd's /v1/stats as snapshot_hits /
// snapshot_misses; they count spine states, not plans, so a plan whose spine
// has 9 cuts, assembled entirely from cache, books 9 hits.
type SnapshotCache struct {
	mu     sync.Mutex
	states *lru.Cache[*statevec.State] // cost = state bytes

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewSnapshotCache returns a cache holding at most maxBytes of spine
// states (least-recently-used states are evicted beyond it). maxBytes <= 0
// selects an effectively unbounded cache.
func NewSnapshotCache(maxBytes int64) *SnapshotCache {
	return &SnapshotCache{states: lru.New[*statevec.State](0, maxBytes)}
}

// Hits returns the number of spine states served from cache.
func (sc *SnapshotCache) Hits() uint64 { return sc.hits.Load() }

// Misses returns the number of spine states that had to be computed.
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

// ForPlan returns the plan's spine, serving every state it can from cache —
// boundaries and interior checkpoints alike, each keyed by the digest of the
// gate prefix before its cut — and computing only the missing ones (each
// computed state is inserted for the next job). The set is laid out by
// newSpine and its missing states computed by PrefixSnapshots.fill, as a run
// that builds its own spine does, so the two are bitwise equal and reuse
// stays histogram-preserving. Safe for concurrent use; two racing callers
// may compute the same state twice, but the states are deterministic, so
// either insert is correct.
func (sc *SnapshotCache) ForPlan(plan *partition.Plan) (*PrefixSnapshots, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if n := plan.Circuit.NumQubits; n > statevec.MaxQubits {
		return nil, fmt.Errorf("core: %d qubits exceeds the %d-qubit dense snapshot limit", n, statevec.MaxQubits)
	}
	ps := newSpine(plan)
	keys := plan.Circuit.PrefixDigests(ps.cuts)

	hits := uint64(0)
	sc.mu.Lock()
	for i, key := range keys {
		if st, ok := sc.states.Get(key); ok {
			ps.states[i] = st
			hits++
		}
	}
	sc.mu.Unlock()
	sc.hits.Add(hits)

	// Compute the gaps outside the lock.
	if misses := uint64(len(keys)) - hits; misses > 0 {
		sc.misses.Add(misses)
		ps.fill(plan.Circuit)
		sc.insert(keys, ps.states)
	}
	return ps, nil
}

// insert adds the spine states under their keys, refreshing ones that raced
// in meanwhile, then evicts least-recently-used states over the byte cap —
// never the set just inserted, which its caller is about to run on.
func (sc *SnapshotCache) insert(keys []string, states []*statevec.State) {
	per := statevec.StateBytes(states[0].NumQubits())
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, key := range keys {
		if _, ok := sc.states.Get(key); !ok {
			sc.states.Set(key, states[i], per)
		}
	}
	sc.states.Trim(len(keys))
}
