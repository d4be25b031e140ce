package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tqsim/internal/circuit"
	"tqsim/internal/gate"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// Result aggregates a TQSim tree run. The accounting fields mirror
// trajectory.Result so baseline and TQSim runs compare directly.
type Result struct {
	// Counts histograms sampled outcomes by basis index. Every tree leaf
	// contributes exactly one outcome, so the total equals the plan's
	// TotalOutcomes.
	Counts map[uint64]int
	// Outcomes is the number of samples produced (tree leaves).
	Outcomes int
	// GateApplications counts every kernel application, noise included.
	GateApplications int64
	// StateCopies counts full state-vector copies between tree nodes —
	// the overhead DCP balances against reuse (Section 3.6). Exactly: Nodes −
	// PrefixReuseHits − SiblingReuseHits, plus one per spine state when a
	// reusing run was given no Spines cache and built its own spine.
	StateCopies int64
	// PeakStateBytes is the peak amplitude memory held concurrently, as
	// DensePeakBytes computes it: one state per tree level plus the working
	// copy per worker (Section 3.4's memory-for-time trade), plus the spine
	// and quiet-child states when the run reuses quiet segments.
	PeakStateBytes int64
	// Nodes is the number of subcircuit-instance nodes executed.
	Nodes int64
	// PrefixReuseHits counts nodes served from the ideal spine, the run's
	// own or one from Executor.Spines: their segment drew no firing noise
	// channel from a parent still on the ideal trajectory, so the copy and
	// the gate work were skipped and the boundary state stood in (see
	// PrefixSnapshots).
	PrefixReuseHits int64
	// SiblingReuseHits counts nodes served from their parent's quiet child:
	// off the spine, the second and later children of one parent whose
	// segments fire nothing skip the copy and the gate work and share the
	// state the first of them computed.
	SiblingReuseHits int64
	// CheckpointStarts counts nodes that fired but started from an interior
	// checkpoint of the spine: under a parent on the ideal trajectory, the
	// gates before the last spine cut ahead of the node's first firing channel
	// were skipped and the cut's state was copied instead of the parent's.
	// They are executed nodes, not hits — each still pays one copy.
	CheckpointStarts int64
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// Structure echoes the plan's arity tuple, e.g. "(16,2,2)".
	Structure string
	// BackendName echoes the backend used.
	BackendName string
}

// Executor runs simulation-tree plans.
type Executor struct {
	// Backend applies gates; nil selects PlainBackend.
	Backend Backend
	// Noise is the noise model; nil simulates the ideal circuit (every
	// trajectory is then identical, which makes reuse exact).
	Noise *noise.Model
	// Seed selects the reproducible trajectory stream.
	Seed uint64
	// Parallelism distributes first-level subtrees across workers
	// (<= 1 runs serially). Outcomes are seed-deterministic either way.
	Parallelism int
	// Context, when non-nil, cancels the run cooperatively: every worker
	// checks it once per tree node (a node is O(2^n) kernel work, so the
	// check granularity is coarse enough to be free and fine enough to stop
	// within one subcircuit instance). A cancelled run returns ctx.Err()
	// and no result — partial histograms are never exposed, because a
	// partially executed tree is not a sample from any defined distribution.
	Context context.Context
	// Spines, when non-nil, is where a reusing run takes its ideal spine
	// (see runTree) instead of computing and booking its own, which saves
	// one ideal pass and nothing else: histograms are byte-identical. A run
	// that does not reuse (DensePeakBytes decides) never touches it.
	Spines *SnapshotCache
	// MemoryBudgetBytes is the caller's cap on peak amplitude memory (0 =
	// unlimited). Worker counts are shed by the planner before the run; the
	// executor consults the cap only to drop quiet-segment reuse when its
	// extra states would not fit (DensePeakBytes).
	MemoryBudgetBytes int64
	// FullWalk makes the run execute every node even where quiet-segment
	// reuse applies: no spine, no quiet children, plan-exact accounting,
	// the same histogram. It is the reference side of a sweep's A/B work
	// measurement (sweep.Spec.NoReuse) and is reachable from nowhere else —
	// no Options field sets it.
	FullWalk bool
}

// cancelled reports whether the executor's context (if any) is done.
func (e *Executor) cancelled() bool {
	return e.Context != nil && e.Context.Err() != nil
}

// runSegment applies one subcircuit instance with fresh noise sampling. ks,
// when non-nil, holds gs lowered for the state's width (a PlainBackend run)
// and is run in place of Backend.Apply; the noise draw reads the gates'
// operands.
func (e *Executor) runSegment(st *statevec.State, be Backend, gs []gate.Gate, ks []statevec.Kernel, r *rng.RNG) int64 {
	var ops int64
	shadow, shadowed := be.(StateShadow)
	for i := range gs {
		g := &gs[i]
		if g.Kind != gate.KindI {
			if ks != nil {
				st.Run(&ks[i])
			} else {
				be.Apply(st, *g)
			}
			ops++
		}
		if !e.Noise.Ideal() {
			// Shadow backends get first refusal: Pauli channels land on the
			// tableau (through the same Model.Draw), keeping the
			// Clifford fast path alive through noisy segments. Anything the
			// shadow cannot express materializes and runs densely.
			if shadowed {
				if n, handled := shadow.ApplyNoise(st, g.Qubits, e.Noise, r); handled {
					ops += int64(n)
					continue
				}
			}
			be.Flush(st)
			ops += int64(e.Noise.Draw(g.Qubits, r, (*noise.Dense)(st)))
		}
	}
	// Shadow backends keep the state in its cheap representation across the
	// segment boundary: copies and sampling go through StateShadow, so no
	// dense amplitudes are needed here. Buffering backends (fusion) must
	// flush before the state is copied or sampled.
	if !shadowed {
		be.Flush(st)
	}
	return ops
}

// copyState copies src into dst through the backend, so shadow backends can
// clone their cheap representation instead of the dense amplitudes.
func copyState(be Backend, dst, src *statevec.State) {
	if sh, ok := be.(StateShadow); ok {
		sh.CopyState(dst, src)
		return
	}
	dst.CopyFrom(src)
}

// LeafFunc observes a leaf state of the simulation tree. The state is only
// valid for the duration of the call; be is the worker's backend instance
// (leaves must route observation through it so shadow backends can sample or
// materialize); the RNG stream is the leaf node's own.
type LeafFunc func(st *statevec.State, be Backend, r *rng.RNG)

// SubtreeSpan returns the number of DFS sequence slots occupied by one node
// at the given level together with its whole subtree: 1 + A_{level+1} +
// A_{level+1}*A_{level+2} + ... Node RNG streams are keyed by these
// sequence numbers in every tree engine (the dense executor here and the
// stabilizer tableau tree), so the arithmetic lives in exactly one place —
// desynchronizing it would silently break cross-engine seed equivalence.
func SubtreeSpan(arities []int, level int) uint64 {
	span := uint64(1)
	acc := uint64(1)
	for _, a := range arities[level+1:] {
		acc *= uint64(a)
		span += acc
	}
	return span
}

// QuietReuse reports whether a dense tree run on the named backend under m
// reuses quiet segments: plain dense kernels (shadow backends keep their own
// cheap representation; a buffering backend applies gates through other
// code paths than the spine is built with; the cluster backend books
// traffic per applied gate, so skipping gates would change its traffic and
// gate-op counts) under a non-ideal model whose firing decisions are
// state-independent (Pauli-only). An ideal run walks the full tree, so its
// accounting stays plan-exact.
func QuietReuse(backend string, m *noise.Model) bool {
	return backend == PlainBackend{}.Name() && quietNoise(m)
}

// quietNoise is QuietReuse's condition on the model.
func quietNoise(m *noise.Model) bool { return !m.Ideal() && m.PauliOnly() }

// DensePeakBytes is the dense executor's memory rule: the peak amplitude
// memory of a tree run of the plan, and whether the run reuses quiet
// segments. The base footprint is one state per level plus the working copy,
// per worker. A reusable run (QuietReuse) adds the ideal spine — one state
// per spine cut, the plan's boundaries and its interior checkpoints alike,
// held once whatever the worker count — and one quiet-child state per worker
// for every level below the first, unless that would overrun a positive
// budget: then reuse is dropped whole, checkpoints with it, and the base
// footprint stands, even where the base alone is over budget (shedding
// workers is the planner's job). The planner's estimates, sweep and serve
// admission and the executor's reported PeakStateBytes all come from here,
// and the per-state term comes from the allocator's own layout constant
// (statevec.StateBytes), so a job admitted on the estimate cannot observe a
// different number at run time. partition.Dynamic's level limit is the base
// term at one worker, spelled there because core imports partition.
func DensePeakBytes(plan *partition.Plan, workers int, reusable bool, budget int64) (peak int64, reuse bool) {
	levels := plan.Levels()
	state := statevec.StateBytes(plan.Circuit.NumQubits)
	peak = int64(workers) * int64(levels+1) * state
	if !reusable {
		return peak, false
	}
	with := peak + int64(spineSize(plan)+workers*(levels-1))*state
	if budget > 0 && with > budget {
		return peak, false
	}
	return with, true
}

// treeWorkers returns the worker count a tree run will use for the plan:
// Parallelism clamped to [1, first-level arity].
func (e *Executor) treeWorkers(plan *partition.Plan) int {
	w := e.Parallelism
	if w < 1 {
		w = 1
	}
	if w > plan.Arities[0] {
		w = plan.Arities[0]
	}
	return w
}

// runTree walks the plan's simulation tree depth-first and fills the
// accounting fields of res. Parallelism > 1 distributes first-level subtrees
// across workers; node RNG streams are keyed by deterministic DFS sequence
// numbers, so results are identical to the serial walk.
//
// Quiet-segment reuse. Under a Pauli-only model a channel's firing decision
// is a fixed-probability draw that never reads the state, so every node
// dry-runs its segment's draws first (noise.Model.SegmentFires on a copy of
// the node stream: runSegment's own Model.Draw, stopped at the first
// operator, so RNG-identical to the real path by construction). A segment
// that fires nothing is quiet: its output is the parent state with the
// segment's gates applied and no noise kernel, so it depends on the parent
// alone and every quiet child of one parent has the bitwise-same state. The
// walk computes that state at most once per parent:
//
//   - a parent on the ideal spine (the root, or a quiet child of a spine
//     node) hands its quiet children the spine's boundary state — from the
//     Spines cache when the run has one, otherwise from a spine the run
//     builds itself, once for all workers, its gate work and copies booked
//     once;
//   - off the spine, the first quiet child computes quiet[level] from the
//     parent with the same kernels in the same order as runSegment, and its
//     later quiet siblings adopt that state.
//
// A quiet node adopts the advanced probe stream, so its subtree and its leaf
// draw exactly what they would have drawn after running the segment; nodes
// are still visited in DFS order, so leaves arrive in the same order with
// the same bits. DensePeakBytes decides whether an eligible run reuses at
// all; a FullWalk run never does.
//
// First-fire start. Up to its first firing channel a node under a spine
// parent is still the ideal evolution, and the spine holds that evolution at
// interior checkpoints as well as at the boundaries (spineCuts). Such a
// node's dry run therefore proceeds span by span between cuts and remembers
// the stream as it stood at the last cut it passed; when a span fires, the
// node copies that cut's state instead of its parent's, adopts the
// remembered stream and runs only the gates after the cut. The draws up to
// the cut are the ones runSegment would have made (nothing fired), the state
// at the cut is bitwise the one it would have computed (applyIdeal), and
// everything after the cut is runSegment itself — so the bits are the full
// walk's and only GateApplications shrinks. A fire in a level's first span,
// and every node off the spine, starts from the parent as before.
//
// leafFor is called once per worker, before that worker starts, and must
// return the worker's private leaf observer. Each observer runs on exactly
// one goroutine with no cross-worker synchronization — callers accumulate
// into per-worker shards and merge after runTree returns, instead of the
// previous design's global mutex around every leaf (which serialized the
// sample-and-histogram tail of every subtree).
func (e *Executor) runTree(plan *partition.Plan, res *Result, leafFor func(worker int) LeafFunc) error {
	be := e.Backend
	if be == nil {
		be = PlainBackend{}
	}
	subs := plan.Subcircuits()
	n := plan.Circuit.NumQubits
	levels := plan.Levels()
	rootRNG := rng.New(e.Seed)
	workers := e.treeWorkers(plan)

	_, plain := be.(PlainBackend)
	var reuse bool
	res.PeakStateBytes, reuse = DensePeakBytes(plan, workers,
		plain && quietNoise(e.Noise) && !e.FullWalk, e.MemoryBudgetBytes)
	// A PlainBackend run lowers its circuit for the register width once:
	// segments, quiet children and its own spine run kernels, and each
	// level's slice of them lines up with its subcircuit's gates.
	var kernels []statevec.Kernel
	levelKernels := make([][]statevec.Kernel, levels)
	if plain {
		kernels = lowerGates(n, plan.Circuit.Gates)
		start := 0
		for level, sub := range subs {
			levelKernels[level] = kernels[start : start+sub.Len()]
			start += sub.Len()
		}
	}
	var spine *PrefixSnapshots
	switch {
	case reuse && e.Spines != nil:
		var err error
		if spine, err = e.Spines.ForPlan(plan); err != nil {
			return err
		}
	case reuse:
		spine = newSpine(plan)
		res.GateApplications += spine.fillLowered(plan.Circuit.Gates, kernels)
		res.StateCopies += int64(len(spine.states))
	}

	type shard struct {
		ops, copies, nodes, prefixHits, siblingHits, checkpointStarts int64
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		onLeaf := leafFor(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			be := be
			if forker, ok := be.(Forker); ok && workers > 1 {
				// Stateful backends (e.g. fusion) keep per-qubit buffers;
				// give every worker its own instance.
				be = forker.Fork()
			}
			sh := &shards[w]
			levelState := make([]*statevec.State, levels)
			for i := range levelState {
				levelState[i] = statevec.NewZero(n)
			}
			// quiet[L] holds the quiet child of the level-L parent being
			// walked; allocated on first use (level 0's parent is the root,
			// which is on the spine, so quiet[0] never is).
			quiet := make([]*statevec.State, levels)
			root := statevec.NewZero(n)
			if shadow, ok := be.(StateShadow); ok {
				shadow.BindZero(root)
			}
			// dryRun draws the segment's noise decisions on a copy of the node
			// stream, span by span between the spine's cuts under a spine
			// parent and in one span otherwise. r is left as it stood at the
			// last cut passed, `from` gates into the segment, where the spine
			// holds state `at`: the segment's end when nothing fired (quiet),
			// else the start of the span that fired — the untouched stream and
			// from == 0 when that is the first.
			dryRun := func(level int, gates []gate.Gate, onSpine bool, r *rng.RNG) (quiet bool, from int, at *statevec.State) {
				if !reuse {
					return false, 0, nil
				}
				lo, hi, start := spine.level(level)
				if !onSpine {
					lo = hi
				}
				probe := *r
				for i := lo; i <= hi; i++ {
					to := spine.cuts[i] - start
					if fired, _ := e.Noise.SegmentFires(gates[from:to], &probe); fired {
						return false, from, at
					}
					*r, from, at = probe, to, spine.states[i]
				}
				return true, from, at
			}
			// walk runs children first, first+stride, ... of one level-`level`
			// parent, each with its whole subtree. Child i's subtree
			// (including its own node) spans a fixed block of DFS sequence
			// numbers starting at seqBase + i*blockLen.
			var walk func(level int, parent *statevec.State, onSpine bool, seqBase uint64, first, stride int)
			walk = func(level int, parent *statevec.State, onSpine bool, seqBase uint64, first, stride int) {
				gates, ks := subs[level].Gates, levelKernels[level]
				blockLen := SubtreeSpan(plan.Arities, level)
				quietReady := false
				for child := first; child < plan.Arities[level]; child += stride {
					if e.cancelled() {
						return
					}
					seq := seqBase + uint64(child)*blockLen
					r := rootRNG.SplitAt(seq)
					st, childOnSpine := levelState[level], false
					sh.nodes++
					quietSeg, from, at := dryRun(level, gates, onSpine, r)
					switch {
					case !quietSeg:
						src := parent
						if from > 0 {
							src = at
							sh.checkpointStarts++
						}
						copyState(be, st, src)
						sh.copies++
						// ks is nil only off PlainBackend, where nothing
						// reuses and from is always 0.
						sh.ops += e.runSegment(st, be, gates[from:], ks[from:], r)
					case onSpine:
						st, childOnSpine = at, true
						sh.prefixHits++
					case quietReady:
						st = quiet[level]
						sh.siblingHits++
					default:
						if quiet[level] == nil {
							quiet[level] = statevec.NewZero(n)
						}
						st = quiet[level]
						st.CopyFrom(parent)
						sh.copies++
						sh.ops += applyIdeal(st, gates, ks)
						quietReady = true
					}
					if level == levels-1 {
						onLeaf(st, be, r)
					} else {
						walk(level+1, st, childOnSpine, seq+1, 0, 1)
					}
				}
			}
			// Worker w handles level-0 children w, w+workers, ...
			walk(0, root, true, 1, w, workers)
		}(w)
	}
	wg.Wait()
	if e.cancelled() {
		return e.Context.Err()
	}
	for _, sh := range shards {
		res.GateApplications += sh.ops
		res.StateCopies += sh.copies
		res.Nodes += sh.nodes
		res.PrefixReuseHits += sh.prefixHits
		res.SiblingReuseHits += sh.siblingHits
		res.CheckpointStarts += sh.checkpointStarts
	}
	return nil
}

// Run executes the plan's simulation tree and returns the aggregated
// outcomes and cost accounting. Every leaf samples exactly one outcome
// (Figure 7: the leaf count equals the outcome count).
func (e *Executor) Run(plan *partition.Plan) (*Result, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	be := e.Backend
	if be == nil {
		be = PlainBackend{}
	}
	res := &Result{
		Counts:      make(map[uint64]int),
		Structure:   plan.Structure(),
		BackendName: be.Name(),
	}
	n := plan.Circuit.NumQubits
	start := time.Now()
	// Each worker histograms its own leaves; the maps are merged once after
	// the tree walk instead of locking around every sample. Counts are
	// integers keyed by outcome, so the merged histogram is identical to a
	// serial walk's for the same seed.
	type leafShard struct {
		counts   map[uint64]int
		outcomes int
	}
	shards := make([]leafShard, e.treeWorkers(plan))
	err := e.runTree(plan, res, func(worker int) LeafFunc {
		sh := &shards[worker]
		sh.counts = make(map[uint64]int)
		return func(st *statevec.State, be Backend, r *rng.RNG) {
			var out uint64
			if shadow, ok := be.(StateShadow); ok {
				out = shadow.SampleState(st, r)
			} else {
				out = st.Sample(r)
			}
			out = e.Noise.FlipReadout(out, n, r)
			sh.counts[out]++
			sh.outcomes++
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range shards {
		for k, v := range shards[i].counts {
			res.Counts[k] += v
		}
		res.Outcomes += shards[i].outcomes
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunBaseline is a convenience that executes the (shots,1,...,1) baseline
// plan through the same executor machinery — useful for apples-to-apples
// backend comparisons (Figure 12 uses this on the fusion backend).
func (e *Executor) RunBaseline(c *circuit.Circuit, shots int) (*Result, error) {
	return e.Run(partition.Baseline(c, shots))
}

// Speedup compares a baseline duration to a TQSim duration.
func Speedup(baseline, tqsim time.Duration) float64 {
	if tqsim <= 0 {
		return 0
	}
	return float64(baseline) / float64(tqsim)
}

// NormalizedComputation returns the tree's kernel work relative to the
// baseline's for the same outcome count — Figure 19's y-axis.
func NormalizedComputation(res *Result, baselineOps int64) float64 {
	if baselineOps <= 0 {
		return 0
	}
	return float64(res.GateApplications) / float64(baselineOps)
}

// String summarizes the result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%s backend=%s outcomes=%d nodes=%d ops=%d copies=%d peakMB=%.1f in %v",
		r.Structure, r.BackendName, r.Outcomes, r.Nodes, r.GateApplications,
		r.StateCopies, float64(r.PeakStateBytes)/(1<<20), r.Elapsed)
}
