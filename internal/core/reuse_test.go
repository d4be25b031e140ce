package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"tqsim/internal/circuit"
	"tqsim/internal/noise"
	"tqsim/internal/observable"
	"tqsim/internal/partition"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
	"tqsim/internal/workloads"
)

// opaque applies gates exactly as PlainBackend does but fails the executor's
// PlainBackend type assertion, so a run on it walks the full tree: the
// reference quiet-segment reuse is compared against. It shares no branch
// with Executor.FullWalk, the sweep engine's switch for the same walk, which
// TestQuietReuseMemoryRule holds against it.
type opaque struct{ PlainBackend }

// leafValues runs the tree and returns every leaf's exact <h>, worker by
// worker in leaf order — the sequence RunExpectation summarizes.
func leafValues(t *testing.T, e *Executor, plan *partition.Plan, h *observable.Hamiltonian) []float64 {
	t.Helper()
	perWorker := make([][]float64, e.treeWorkers(plan))
	err := e.runTree(plan, &Result{}, func(w int) LeafFunc {
		return func(st *statevec.State, _ Backend, _ *rng.RNG) {
			perWorker[w] = append(perWorker[w], h.ExpectationState(st))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var values []float64
	for _, vs := range perWorker {
		values = append(values, vs...)
	}
	return values
}

func reuseGridCircuits() []*circuit.Circuit {
	return []*circuit.Circuit{
		workloads.QPE(5, workloads.QPEPhase, true, -1),
		workloads.QFT(6, true),
		workloads.BV(6, workloads.BVSecret(6)),
		workloads.QAOA(graphsRing(6), []workloads.QAOAParams{{Gamma: 0.6, Beta: 0.4}}),
	}
}

var reuseGridStructures = [][]int{
	{40},
	{10, 1, 4},
	{12, 3},
	{8, 3, 2},
	{6, 2, 2, 2},
	{4, 2, 2, 2, 2},
}

// reuseGridPlans is the plan axis of the grid: the equal-cut
// reuseGridStructures first, then the shapes first-fire starts depend on — a
// first cut so early that the budget goes to the long segment behind it
// (tree_wide's (61,3)), a one-gate segment, and one-gate segments that cannot
// hold their share of checkpoints.
func reuseGridPlans(c *circuit.Circuit) []*partition.Plan {
	var plans []*partition.Plan
	for _, arities := range reuseGridStructures {
		plans = append(plans, partition.FromStructure(c, arities))
	}
	mid := c.Len() / 2
	for _, p := range []*partition.Plan{
		{Bounds: []int{2}, Arities: []int{13, 3}},
		{Bounds: []int{mid, mid + 1}, Arities: []int{6, 2, 2}},
		{Bounds: []int{1, 2, 3, 4}, Arities: []int{3, 2, 2, 2, 2}},
	} {
		p.Circuit, p.Strategy = c, "manual"
		plans = append(plans, p)
	}
	return plans
}

// boundaryCuts is a spine layout of the plan's boundaries and no interior
// checkpoint: a run whose spine is laid out by it is the same run with no
// checkpoint to start at.
func boundaryCuts(plan *partition.Plan) (cuts, ends []int) {
	cuts = append(slices.Clone(plan.Bounds), plan.Circuit.Len())
	for l := range cuts {
		ends = append(ends, l)
	}
	return cuts, ends
}

// withLayout runs the executor on the plan with spines laid out by cut
// instead of spineCuts.
func withLayout(e *Executor, plan *partition.Plan, cut func(*partition.Plan) ([]int, []int)) (*Result, error) {
	defer func(prev func(*partition.Plan) ([]int, []int)) { layout = prev }(layout)
	layout = cut
	return e.Run(plan)
}

// TestQuietReuseMatchesFullWalk: over a seeded grid, a reusing run and the
// full walk produce the same histogram and the same leaf-value sequence from
// the same number of nodes, and the reuse accounting is exact — every node
// either copies a state or is a counted hit, a run with hits does less gate
// work than the full walk even after paying for its own spine, a node that
// starts at a checkpoint runs fewer gates than it does with the checkpoints
// unused, and a spine taken from a cache, cold or warm, saves the ideal pass
// and nothing else. An ideal run is one ideal pass: every node is a spine hit.
func TestQuietReuseMatchesFullWalk(t *testing.T) {
	models := []*noise.Model{
		noise.ByName("DC"),
		noise.ByName("DCR"),
		noise.NewDepolarizing(0.0005, 0.002),
		// A library-built model is never validated; a NaN rate fires after
		// every gate, and the dry run must say so too.
		noise.NewDepolarizing(math.NaN(), 0.01),
		// The ideal model by name (nil) and a library-built model with no
		// channels: nothing fires, so both reuse every node.
		noise.ByName("ideal"),
		{ModelName: "empty"},
	}
	cell := uint64(0)
	var spineHits, siblingHits, checkpointStarts int64
	for _, c := range reuseGridCircuits() {
		h := observable.MaxCutHamiltonian(c.NumQubits, ringEdges(c.NumQubits))
		for _, m := range models {
			for _, plan := range reuseGridPlans(c) {
				spine := newSpine(plan)
				idealPass := spine.fill(plan.Circuit)
				spineStates := int64(len(spine.states))
				for _, workers := range []int{1, 2, 3, 13} {
					seed := rng.SeedAt(100, cell)
					cell++
					name := fmt.Sprintf("%s/%s/%s%v/w%d", c.Name, m.Name(), plan.Structure(), plan.Bounds, workers)
					full := &Executor{Backend: opaque{}, Noise: m, Seed: seed, Parallelism: workers}
					reuse := &Executor{Noise: m, Seed: seed, Parallelism: workers}
					want, err := full.Run(plan)
					if err != nil {
						t.Fatal(err)
					}
					got, err := reuse.Run(plan)
					if err != nil {
						t.Fatal(err)
					}
					if want.PrefixReuseHits != 0 || want.SiblingReuseHits != 0 || want.CheckpointStarts != 0 ||
						want.StateCopies != plan.CopyWork() || want.Nodes != plan.CopyWork() {
						t.Fatalf("%s: the opaque backend did not walk the full tree: %+v", name, want)
					}
					if !reflect.DeepEqual(got.Counts, want.Counts) {
						t.Errorf("%s: histogram differs from the full walk's", name)
					}
					if !reflect.DeepEqual(leafValues(t, reuse, plan, h), leafValues(t, full, plan, h)) {
						t.Errorf("%s: leaf expectation values differ from the full walk's", name)
					}
					if got.Nodes != want.Nodes {
						t.Errorf("%s: %d nodes, full walk %d", name, got.Nodes, want.Nodes)
					}
					hits := got.PrefixReuseHits + got.SiblingReuseHits
					if got.StateCopies != got.Nodes-hits+spineStates {
						t.Errorf("%s: %d copies, want nodes %d - hits %d + %d spine states",
							name, got.StateCopies, got.Nodes, hits, spineStates)
					}
					if hits > 0 && got.GateApplications >= want.GateApplications {
						t.Errorf("%s: %d hits but %d gate applications, full walk %d",
							name, hits, got.GateApplications, want.GateApplications)
					}
					if m.Ideal() && (got.PrefixReuseHits != got.Nodes || got.GateApplications != idealPass) {
						t.Errorf("%s: ideal run hit %d of %d nodes in %d gate applications, want every node in one pass of %d",
							name, got.PrefixReuseHits, got.Nodes, got.GateApplications, idealPass)
					}
					less := *got
					less.GateApplications -= idealPass
					less.StateCopies -= spineStates
					spines := NewSnapshotCache(0)
					var supplied *Result
					for _, temp := range []string{"cold", "warm"} {
						supplied, err = (&Executor{Noise: m, Seed: seed, Parallelism: workers, Spines: spines}).Run(plan)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(supplied, withElapsed(&less, supplied)) {
							t.Errorf("%s: spine from a %s cache: %+v, want the own-spine run less one ideal pass %+v", name, temp, supplied, &less)
						}
					}
					if spines.Misses() != uint64(spineStates) || spines.Hits() != uint64(spineStates) {
						t.Errorf("%s: cold then warm cache booked %d misses and %d hits, want %d each",
							name, spines.Misses(), spines.Hits(), spineStates)
					}
					// With the checkpoints unused the run differs in gate work
					// alone: strictly more of it iff some node started at one.
					unused, err := withLayout(&Executor{Noise: m, Seed: seed, Parallelism: workers, Spines: NewSnapshotCache(0)}, plan, boundaryCuts)
					if err != nil {
						t.Fatal(err)
					}
					saved := unused.GateApplications - supplied.GateApplications
					if unused.CheckpointStarts != 0 || (saved > 0) != (supplied.CheckpointStarts > 0) || saved < 0 {
						t.Errorf("%s: %d checkpoint starts saved %d gate applications (%d starts with none to start at)",
							name, supplied.CheckpointStarts, saved, unused.CheckpointStarts)
					}
					same := *supplied
					same.GateApplications, same.CheckpointStarts = unused.GateApplications, 0
					if !reflect.DeepEqual(unused, withElapsed(&same, unused)) {
						t.Errorf("%s: checkpoints unused: %+v, want the checkpointed run's %+v but for gate work", name, unused, supplied)
					}
					spineHits += got.PrefixReuseHits
					siblingHits += got.SiblingReuseHits
					checkpointStarts += got.CheckpointStarts
				}
			}
		}
	}
	if spineHits == 0 || siblingHits == 0 || checkpointStarts == 0 {
		t.Fatalf("grid exercised %d spine hits, %d sibling hits and %d checkpoint starts; all three paths must run",
			spineHits, siblingHits, checkpointStarts)
	}
}

// TestSpineCuts: the cut list holds every plan bound and the circuit's end,
// spends at most 2·levels interior checkpoints in proportion to segment
// length, and leaves no span empty.
func TestSpineCuts(t *testing.T) {
	gates := func(n int) *circuit.Circuit {
		c := circuit.New("g", 1)
		for i := 0; i < n; i++ {
			c.H(0)
		}
		return c
	}
	for _, tc := range []struct {
		name   string
		gates  int
		bounds []int
		want   []int
	}{
		{"flat", 90, nil, []int{30, 60, 90}},
		{"tree_wide (61,3): 0 + 4", 652, []int{30}, []int{30, 154, 278, 403, 527, 652}},
		{"equal thirds", 90, []int{30, 60}, []int{10, 20, 30, 40, 50, 60, 70, 80, 90}},
		{"one-gate segment", 21, []int{10, 11}, []int{2, 5, 7, 10, 11, 13, 16, 18, 21}},
		{"shorter than its share", 6, []int{1, 2}, []int{1, 2, 3, 4, 5, 6}},
		{"one gate", 1, nil, []int{1}},
	} {
		plan := &partition.Plan{Circuit: gates(tc.gates), Bounds: tc.bounds, Arities: make([]int, len(tc.bounds)+1)}
		cuts, ends := spineCuts(plan)
		if !reflect.DeepEqual(cuts, tc.want) || spineSize(plan) != len(tc.want) {
			t.Errorf("%s: cuts %v (%d spine states), want %v", tc.name, cuts, spineSize(plan), tc.want)
		}
		for l, e := range ends {
			if end := append(tc.bounds, tc.gates)[l]; cuts[e] != end {
				t.Errorf("%s: level %d ends at cut %d, want gate %d", tc.name, l, cuts[e], end)
			}
		}
	}
}

// TestNoQuietReuseOutsidePauliNoise: state-dependent channels reuse nothing
// and keep the full walk's accounting.
func TestNoQuietReuseOutsidePauliNoise(t *testing.T) {
	c := workloads.QFT(6, true)
	plan := partition.FromStructure(c, []int{6, 3, 2})
	for _, name := range []string{"AD", "TR", "ALL"} {
		m := noise.ByName(name)
		want, err := (&Executor{Backend: opaque{}, Noise: m, Seed: 9}).Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Executor{Noise: m, Seed: 9}).Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.PrefixReuseHits != 0 || got.SiblingReuseHits != 0 {
			t.Errorf("%s: %d spine and %d sibling hits, want none", name, got.PrefixReuseHits, got.SiblingReuseHits)
		}
		if got.GateApplications != want.GateApplications || got.StateCopies != plan.CopyWork() ||
			got.Nodes != plan.CopyWork() || got.PeakStateBytes != want.PeakStateBytes {
			t.Errorf("%s: accounting %+v differs from the full walk's %+v", name, got, want)
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("%s: histogram differs from the full walk's", name)
		}
	}
}

// TestQuietReuseMemoryRule: the reported peak is DensePeakBytes', and reuse
// is dropped exactly when its extra states — the whole spine, interior
// checkpoints included — overrun the budget or the run is a FullWalk.
func TestQuietReuseMemoryRule(t *testing.T) {
	c := workloads.QFT(6, true)
	m := noise.NewDepolarizing(0.0005, 0.002)
	plan := partition.FromStructure(c, []int{9, 3, 2})
	state := statevec.StateBytes(c.NumQubits)
	// The spine holds the 3 boundaries and 2·3 interior checkpoints.
	const workers, levels, spineStates = 2, 3, 9
	base := int64(workers*(levels+1)) * state
	with := base + int64(spineStates+workers*(levels-1))*state

	run := func(e Executor) *Result {
		t.Helper()
		e.Noise, e.Seed, e.Parallelism = m, 4, workers
		res, err := e.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	own := run(Executor{})
	if own.PeakStateBytes != with || own.PrefixReuseHits == 0 {
		t.Fatalf("unbudgeted run: peak %d (want %d), %d spine hits", own.PeakStateBytes, with, own.PrefixReuseHits)
	}
	if fits := run(Executor{MemoryBudgetBytes: with}); !reflect.DeepEqual(fits, withElapsed(own, fits)) {
		t.Errorf("budget == reuse footprint: %+v, want the unbudgeted run's %+v", fits, own)
	}
	tight := run(Executor{MemoryBudgetBytes: with - 1})
	if tight.PeakStateBytes != base || tight.PrefixReuseHits+tight.SiblingReuseHits+tight.CheckpointStarts != 0 ||
		tight.StateCopies != plan.CopyWork() {
		t.Errorf("budget one byte short: peak %d (want %d), accounting %+v", tight.PeakStateBytes, base, tight)
	}
	if !reflect.DeepEqual(tight.Counts, own.Counts) {
		t.Error("dropping reuse changed the histogram")
	}

	if spine := newSpine(plan); len(spine.states) != spineStates {
		t.Fatalf("spine of %d states, want %d", len(spine.states), spineStates)
	}
	full := run(Executor{Backend: opaque{}})
	spines := NewSnapshotCache(0)
	for _, e := range []Executor{{FullWalk: true}, {FullWalk: true, Spines: spines}} {
		if walk := run(e); !reflect.DeepEqual(walk, withElapsed(full, walk)) {
			t.Errorf("FullWalk (cache given: %t): %+v, want the opaque backend's full walk %+v", e.Spines != nil, walk, full)
		}
	}
	// A run that does not reuse never computes or caches a spine.
	if dropped := run(Executor{MemoryBudgetBytes: with - 1, Spines: spines}); !reflect.DeepEqual(dropped, withElapsed(tight, dropped)) {
		t.Errorf("budget one byte short, cache given: %+v, want %+v", dropped, tight)
	}
	if spines.Hits()+spines.Misses() != 0 || spines.Len() != 0 {
		t.Errorf("runs without reuse touched the cache: %d hits, %d misses, %d states", spines.Hits(), spines.Misses(), spines.Len())
	}
}

// withElapsed returns a copy of r carrying like's wall time, the one field
// two equal runs differ in.
func withElapsed(r, like *Result) *Result {
	out := *r
	out.Elapsed = like.Elapsed
	return &out
}
