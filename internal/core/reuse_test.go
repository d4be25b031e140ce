package core

import (
	"fmt"
	"reflect"
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

// TestQuietReuseMatchesFullWalk: over a seeded grid, a reusing run and the
// full walk produce the same histogram and the same leaf-value sequence from
// the same number of nodes, and the reuse accounting is exact — every node
// either copies its parent or is a counted hit.
func TestQuietReuseMatchesFullWalk(t *testing.T) {
	models := []*noise.Model{
		noise.ByName("DC"),
		noise.ByName("DCR"),
		noise.NewDepolarizing(0.0005, 0.002),
	}
	cell := uint64(0)
	var spineHits, siblingHits int64
	for _, c := range reuseGridCircuits() {
		h := observable.MaxCutHamiltonian(c.NumQubits, ringEdges(c.NumQubits))
		for _, m := range models {
			for _, arities := range reuseGridStructures {
				plan := partition.FromStructure(c, arities)
				levels := int64(plan.Levels())
				for _, workers := range []int{1, 2, 3, 13} {
					seed := rng.SeedAt(100, cell)
					cell++
					name := fmt.Sprintf("%s/%s/%s/w%d", c.Name, m.Name(), plan.Structure(), workers)
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
					if want.PrefixReuseHits != 0 || want.SiblingReuseHits != 0 ||
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
					if got.StateCopies != got.Nodes-hits+levels {
						t.Errorf("%s: %d copies, want nodes %d - hits %d + %d spine states",
							name, got.StateCopies, got.Nodes, hits, levels)
					}
					if hits > 0 && got.GateApplications >= want.GateApplications {
						t.Errorf("%s: %d hits but %d gate applications, full walk %d",
							name, hits, got.GateApplications, want.GateApplications)
					}
					spineHits += got.PrefixReuseHits
					siblingHits += got.SiblingReuseHits
				}
			}
		}
	}
	if spineHits == 0 || siblingHits == 0 {
		t.Fatalf("grid exercised %d spine hits and %d sibling hits; both paths must run", spineHits, siblingHits)
	}
}

// TestNoQuietReuseOutsidePauliNoise: state-dependent channels and ideal runs
// reuse nothing and keep the full walk's accounting.
func TestNoQuietReuseOutsidePauliNoise(t *testing.T) {
	c := workloads.QFT(6, true)
	plan := partition.FromStructure(c, []int{6, 3, 2})
	for _, name := range []string{"AD", "TR", "ALL", "ideal"} {
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

// TestQuietReuseMemoryRule: the reported peak is DensePeakBytes', reuse is
// dropped exactly when its extra states overrun the budget or the run is a
// FullWalk, and a supplied spine saves the ideal pass and nothing else.
func TestQuietReuseMemoryRule(t *testing.T) {
	c := workloads.QFT(6, true)
	m := noise.NewDepolarizing(0.0005, 0.002)
	plan := partition.FromStructure(c, []int{9, 3, 2})
	state := statevec.StateBytes(c.NumQubits)
	const workers, levels = 2, 3
	base := int64(workers*(levels+1)) * state
	with := base + int64(levels+workers*(levels-1))*state

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
	if tight.PeakStateBytes != base || tight.PrefixReuseHits+tight.SiblingReuseHits != 0 ||
		tight.StateCopies != plan.CopyWork() {
		t.Errorf("budget one byte short: peak %d (want %d), accounting %+v", tight.PeakStateBytes, base, tight)
	}
	if !reflect.DeepEqual(tight.Counts, own.Counts) {
		t.Error("dropping reuse changed the histogram")
	}

	spine, idealPass := buildSpine(plan)
	supplied := run(Executor{Prefix: spine})
	want := *own
	want.GateApplications -= idealPass
	want.StateCopies -= levels
	if !reflect.DeepEqual(supplied, withElapsed(&want, supplied)) {
		t.Errorf("supplied spine: %+v, want the own-spine run less one ideal pass %+v", supplied, &want)
	}

	full := run(Executor{Backend: opaque{}})
	for _, e := range []Executor{{FullWalk: true}, {FullWalk: true, Prefix: spine}} {
		if walk := run(e); !reflect.DeepEqual(walk, withElapsed(full, walk)) {
			t.Errorf("FullWalk (spine supplied: %t): %+v, want the opaque backend's full walk %+v", e.Prefix != nil, walk, full)
		}
	}
}

// withElapsed returns a copy of r carrying like's wall time, the one field
// two equal runs differ in.
func withElapsed(r, like *Result) *Result {
	out := *r
	out.Elapsed = like.Elapsed
	return &out
}
