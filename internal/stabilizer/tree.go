// Tree execution on tableaux: the same simulation-tree reuse the paper
// applies to state vectors, applied to the polynomial stabilizer
// representation. Every tree node costs an O(n^2/64)-word tableau copy plus
// O(n)-per-gate Clifford updates, so Clifford circuits under Pauli noise run
// at widths the dense engines cannot touch (a 36-qubit state vector is
// 1 TiB; its tableau is ~650 bytes). Node RNG streams use the executor's
// DFS sequence numbering, so histograms are seed-deterministic at any
// parallelism, exactly like the dense tree walk.
package stabilizer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tqsim/internal/core"
	"tqsim/internal/gate"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/rng"
)

// MaxTreeQubits bounds tableau tree runs: MeasureAll packs outcomes into a
// uint64, one bit per qubit.
const MaxTreeQubits = 64

// RunTree executes a simulation-tree plan entirely on tableaux. The
// circuit must be Clifford-only and the model ideal or purely depolarizing
// (plus optional readout flips); anything else returns an error — callers
// fall back to the dense executor with the hybrid Backend adapter.
//
// This walker is a second implementation of core.Executor's tree walk and is
// kept on purpose: the dense executor allocates one state vector per level,
// so it cannot run the 30–64-qubit widths this one exists for. What the two
// share is what must not diverge: core.SubtreeSpan's node numbering, the
// noise draw (noise.Model.Draw, here into the tableau), and the
// cancellation rule.
func RunTree(plan *partition.Plan, m *noise.Model, seed uint64, parallelism int) (*core.Result, error) {
	return RunTreeContext(context.Background(), plan, m, seed, parallelism)
}

// RunTreeContext is RunTree with the dense executor's cancellation rule:
// every worker checks ctx once per tree node (a flat plan is one node per
// shot, so a multi-million-shot job stops promptly), and a cancelled run
// returns ctx.Err() and no result — never a partial histogram.
func RunTreeContext(ctx context.Context, plan *partition.Plan, m *noise.Model, seed uint64, parallelism int) (*core.Result, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	n := plan.Circuit.NumQubits
	if n > MaxTreeQubits {
		return nil, fmt.Errorf("stabilizer: %d qubits exceeds the %d-qubit outcome packing limit", n, MaxTreeQubits)
	}
	if !m.PauliOnly() {
		return nil, fmt.Errorf("stabilizer: model %s is not expressible as Pauli noise", m.Name())
	}
	if !IsClifford(plan.Circuit) {
		return nil, fmt.Errorf("stabilizer: circuit %s contains non-Clifford gates", plan.Circuit.Name)
	}

	subs := plan.Subcircuits()
	levels := plan.Levels()
	rootRNG := rng.New(seed)

	// The executor's DFS sequence numbering (core.SubtreeSpan) keys node
	// RNG streams identically across the dense and tableau walks.
	subtreeNodes := core.SubtreeSpan(plan.Arities, 0)

	workers := parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > plan.Arities[0] {
		workers = plan.Arities[0]
	}

	res := &core.Result{
		Counts:      make(map[uint64]int),
		Structure:   plan.Structure(),
		BackendName: "stabilizer",
	}
	res.PeakStateBytes = int64(workers) * int64(levels+1) * TableauBytes(n)

	type shard struct {
		counts             map[uint64]int
		outcomes           int
		ops, copies, nodes int64
	}
	shards := make([]shard, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := &shards[w]
			sh.counts = make(map[uint64]int)
			levelTab := make([]*Tableau, levels)
			for i := range levelTab {
				levelTab[i] = New(n)
			}
			root := New(n)
			runSegment := func(t *Tableau, gs []gate.Gate, r *rng.RNG) {
				for _, g := range gs {
					if g.Kind != gate.KindI {
						// Clifford-ness was verified up front; Apply cannot
						// fail here.
						if err := t.Apply(g); err != nil {
							panic(err)
						}
						sh.ops++
					}
					// Pauli-only-ness was verified up front; the channel
					// sampling (and RNG consumption) is the dense engines'.
					sh.ops += int64(m.Draw(g.Qubits, r, (*paulis)(t)))
				}
			}
			leaf := func(t *Tableau, r *rng.RNG) {
				out := t.MeasureAll(r)
				out = m.FlipReadout(out, n, r)
				sh.counts[out]++
				sh.outcomes++
			}
			var walk func(level int, parent *Tableau, seqBase uint64)
			walk = func(level int, parent *Tableau, seqBase uint64) {
				arity := plan.Arities[level]
				gates := subs[level].Gates
				blockLen := core.SubtreeSpan(plan.Arities, level)
				for child := 0; child < arity; child++ {
					if ctx.Err() != nil {
						return
					}
					seq := seqBase + uint64(child)*blockLen
					t := levelTab[level]
					t.CopyFrom(parent)
					sh.copies++
					sh.nodes++
					r := rootRNG.SplitAt(seq)
					runSegment(t, gates, r)
					if level == levels-1 {
						leaf(t, r)
					} else {
						walk(level+1, t, seq+1)
					}
				}
			}
			arity0 := plan.Arities[0]
			gates0 := subs[0].Gates
			for child := w; child < arity0; child += workers {
				if ctx.Err() != nil {
					return
				}
				seq := 1 + uint64(child)*subtreeNodes
				t := levelTab[0]
				t.CopyFrom(root)
				sh.copies++
				sh.nodes++
				r := rootRNG.SplitAt(seq)
				runSegment(t, gates0, r)
				if levels == 1 {
					leaf(t, r)
				} else {
					walk(1, t, seq+1)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range shards {
		for k, v := range shards[i].counts {
			res.Counts[k] += v
		}
		res.Outcomes += shards[i].outcomes
		res.GateApplications += shards[i].ops
		res.StateCopies += shards[i].copies
		res.Nodes += shards[i].nodes
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
