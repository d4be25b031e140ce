package core

import (
	"slices"

	"tqsim/internal/circuit"
	"tqsim/internal/gate"
	"tqsim/internal/partition"
	"tqsim/internal/statevec"
)

// PrefixSnapshots is the ideal spine of a plan: the noise-free state at an
// ascending list of gate cuts (spineCuts) — every subcircuit boundary plus a
// few interior checkpoints of long segments. Under a Pauli-only noise model a
// trajectory's state is bitwise equal to the ideal evolution until the first
// channel actually fires, so a tree node whose parent is still on the ideal
// trajectory needs no gate work before that first fire: a segment that draws
// no firing channel IS the boundary snapshot, and one that does starts from
// the last checkpoint before the fire instead of from its parent. Every
// reusing dense run holds one (Executor.runTree): its own, or one taken from
// the SnapshotCache in Executor.Spines — the states depend only on the gate
// prefix before each cut, so the noise points and repeats of a sweep and the
// batches and jobs of tqsimd share them through one cache.
//
// Snapshots are computed once with the plain dense kernels in the same
// per-gate order the executor applies them, so a snapshot is bitwise equal
// to the state a no-fire trajectory would have computed at that gate — the
// property that makes reuse histogram-preserving. They are read-only after
// construction and safe to share across worker goroutines and concurrent
// runs.
type PrefixSnapshots struct {
	n      int
	bounds []int
	// cuts is spineCuts of the plan the set was built for; states[i] is the
	// ideal state after gates[0:cuts[i]].
	cuts   []int
	states []*statevec.State
	// ends[L] indexes level L's boundary in cuts: its spans are the cuts
	// after ends[L-1] up to and including ends[L].
	ends []int
}

// checkpointsPerLevel sets the interior-checkpoint budget of a spine:
// 2·levels states beyond the plan's own boundaries. A node that fires skips,
// on average, all but half a span of its ideal prefix, so the gate work left
// on the table shrinks as 1/(checkpoints+1) while every checkpoint costs a
// resident state; docs/experimentation.md (PR 22) holds 2 against 1 and 4 on
// tree_wide.
const checkpointsPerLevel = 2

// spineCuts returns the ascending gate cuts a plan's spine holds states at,
// and for each level the index of its boundary among them: every plan bound,
// the circuit's end, and each segment's interior checkpoints
// (segmentCheckpoints), evenly spaced inside it. A pure function of (bounds,
// circuit length).
func spineCuts(plan *partition.Plan) (cuts, ends []int) {
	levels := plan.Levels()
	cuts = make([]int, 0, (1+checkpointsPerLevel)*levels)
	ends = make([]int, 0, levels)
	for level := 0; level < levels; level++ {
		start, end, k := segmentCheckpoints(plan, level)
		for j := 1; j <= k; j++ {
			cuts = append(cuts, start+j*(end-start)/(k+1))
		}
		cuts = append(cuts, end)
		ends = append(ends, len(cuts)-1)
	}
	return cuts, ends
}

// spineSize is the number of states a plan's spine holds, len(spineCuts),
// without building the list: the memory rule asks for nothing else.
func spineSize(plan *partition.Plan) int {
	states := plan.Levels()
	for level := range plan.Arities {
		_, _, k := segmentCheckpoints(plan, level)
		states += k
	}
	return states
}

// segmentCheckpoints returns the gate range of the plan's level-th segment
// and the interior checkpoints it gets: its share of the spine's budget of
// checkpointsPerLevel·levels, in proportion to its gate count — the budget's
// rounded running total over the circuit, taken at the segment's two ends, so
// the shares sum to the budget — capped at one fewer than its gates so that
// no span is empty.
func segmentCheckpoints(plan *partition.Plan, level int) (start, end, k int) {
	total := plan.Circuit.Len()
	if level > 0 {
		start = plan.Bounds[level-1]
	}
	end = total
	if level < len(plan.Bounds) {
		end = plan.Bounds[level]
	}
	if total == 0 {
		return start, end, 0
	}
	budget := checkpointsPerLevel * plan.Levels()
	upTo := func(g int) int { return (2*budget*g + total) / (2 * total) }
	return start, end, min(upTo(end)-upTo(start), end-start-1)
}

// newSpine lays out the spine of a validated plan of dense width with no
// state computed yet; fill computes them.
func newSpine(plan *partition.Plan) *PrefixSnapshots {
	ps := &PrefixSnapshots{n: plan.Circuit.NumQubits, bounds: slices.Clone(plan.Bounds)}
	ps.cuts, ps.ends = layout(plan)
	ps.states = make([]*statevec.State, len(ps.cuts))
	return ps
}

// layout is where newSpine cuts a spine: spineCuts, which only tests replace.
var layout = spineCuts

// fill computes every state the spine does not hold yet and returns the
// kernel applications that cost (the executor books them, and one copy per
// state, when a run builds its own spine). It lowers the circuit for the
// spine's width; a run that has already lowered it calls fillLowered.
func (ps *PrefixSnapshots) fill(c *circuit.Circuit) int64 {
	return ps.fillLowered(c.Gates, lowerGates(ps.n, c.Gates))
}

// fillLowered is fill given the circuit's gates and their kernels. It is the
// one place spine states are made: each missing cut extends a private copy
// of the state before it (held states are read-only and may be shared) with
// the kernels and gate order of applyIdeal.
func (ps *PrefixSnapshots) fillLowered(gs []gate.Gate, ks []statevec.Kernel) int64 {
	var ops int64
	prev := 0
	for i, cut := range ps.cuts {
		if ps.states[i] == nil {
			var st *statevec.State
			if i == 0 {
				st = statevec.NewZero(ps.n)
			} else {
				st = ps.states[i-1].Clone()
			}
			ops += applyIdeal(st, gs[prev:cut], ks[prev:cut])
			ps.states[i] = st
		}
		prev = cut
	}
	return ops
}

// lowerGates lowers every gate of gs for an n-qubit register.
func lowerGates(n int, gs []gate.Gate) []statevec.Kernel {
	ks := make([]statevec.Kernel, len(gs))
	for i := range gs {
		ks[i] = statevec.Lower(n, &gs[i])
	}
	return ks
}

// applyIdeal applies a gate segment with no noise, running its lowered
// kernels ks in the per-gate order runSegment uses, and returns the kernel
// applications. Spine states, cached boundary states and quiet children are
// all computed here, which is what makes each bitwise equal to the state a
// trajectory that fires nothing computes.
func applyIdeal(st *statevec.State, gs []gate.Gate, ks []statevec.Kernel) int64 {
	var ops int64
	for i := range gs {
		if gs[i].Kind != gate.KindI {
			st.Run(&ks[i])
			ops++
		}
	}
	return ops
}

// level returns the spine's view of plan level L: the cut indices lo..hi of
// its spans' ends (hi is the level's boundary state) and the gate offset the
// level starts at.
func (ps *PrefixSnapshots) level(l int) (lo, hi, start int) {
	if l > 0 {
		lo, start = ps.ends[l-1]+1, ps.bounds[l-1]
	}
	return lo, ps.ends[l], start
}
