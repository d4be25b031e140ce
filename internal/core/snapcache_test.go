package core

import (
	"slices"
	"sync"
	"testing"

	"tqsim/internal/partition"
	"tqsim/internal/statevec"
	"tqsim/internal/workloads"
)

// TestForPlanBitwiseEqualsOwnSpine: the cache-assembled spine must hold
// exactly the states a run that builds its own spine computes — amplitude
// for amplitude — whether they were computed cold or served from earlier
// insertions.
func TestForPlanBitwiseEqualsOwnSpine(t *testing.T) {
	c := workloads.QFT(5, true)
	plan := partition.FromStructure(c, []int{8, 4, 4})
	want := newSpine(plan)
	want.fill(plan.Circuit)
	sc := NewSnapshotCache(0)
	for round := 0; round < 2; round++ { // cold assembly, then all-hit assembly
		got, err := sc.ForPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.cuts, want.cuts) || !slices.Equal(got.ends, want.ends) {
			t.Fatalf("round %d: assembled at cuts %v, want %v", round, got.cuts, want.cuts)
		}
		if len(got.states) != len(want.states) {
			t.Fatalf("round %d: %d states, want %d", round, len(got.states), len(want.states))
		}
		for i := range want.states {
			wa, ga := want.states[i].Amplitudes(), got.states[i].Amplitudes()
			for k := range wa {
				if wa[k] != ga[k] {
					t.Fatalf("round %d: boundary %d amplitude %d differs", round, i, k)
				}
			}
		}
	}
	if sc.Hits() == 0 || sc.Misses() == 0 {
		t.Fatalf("hits %d misses %d: second assembly should hit, first should miss", sc.Hits(), sc.Misses())
	}
}

// TestForPlanSharesCommonPrefixAcrossCircuits: two circuits equal up to a
// boundary share that boundary's cached state even though their suffixes
// (and full-circuit states) differ.
func TestForPlanSharesCommonPrefixAcrossCircuits(t *testing.T) {
	a := workloads.QFT(4, true)
	b := a.Clone()
	b.Name = "variant"
	b.RZ(0.123, 0) // diverge after the shared gates

	bounds := []int{a.Len() / 2}
	planA := &partition.Plan{Circuit: a, Bounds: bounds, Arities: []int{4, 4}, Strategy: "manual"}
	planB := &partition.Plan{Circuit: b, Bounds: bounds, Arities: []int{4, 4}, Strategy: "manual"}

	sc := NewSnapshotCache(0)
	if _, err := sc.ForPlan(planA); err != nil {
		t.Fatal(err)
	}
	h0, m0 := sc.Hits(), sc.Misses()
	if _, err := sc.ForPlan(planB); err != nil {
		t.Fatal(err)
	}
	// Plan B's spine states at cuts plan A also holds, inside the shared
	// gates, hit — the first boundary among them; the rest, its final state
	// (different suffix) among them, miss.
	cutsA, _ := spineCuts(planA)
	cutsB, _ := spineCuts(planB)
	var shared uint64
	for _, cut := range cutsB {
		if cut <= a.Len() && slices.Contains(cutsA, cut) {
			shared++
		}
	}
	if !slices.Contains(cutsA, bounds[0]) || shared == uint64(len(cutsB)) {
		t.Fatalf("cuts %v and %v: want the boundary shared and the final state not", cutsA, cutsB)
	}
	if hits := sc.Hits() - h0; hits != shared {
		t.Fatalf("shared-prefix assembly booked %d hits, want %d", hits, shared)
	}
	if misses := sc.Misses() - m0; misses != uint64(len(cutsB))-shared {
		t.Fatalf("shared-prefix assembly booked %d misses, want %d", misses, uint64(len(cutsB))-shared)
	}
}

// TestEvictionKeepsBytesBounded: the cache evicts LRU states beyond the
// byte cap but never evicts the set it is currently inserting.
func TestEvictionKeepsBytesBounded(t *testing.T) {
	per := statevec.StateBytes(4) // one 4-qubit spine state
	const set = 6                 // a two-level plan's spine: 2 boundaries + 4 checkpoints
	sc := NewSnapshotCache((set + 1) * per)
	for i := 0; i < 6; i++ {
		c := workloads.QFT(4, true)
		c.RZ(float64(i)+0.5, 0) // distinct content per iteration
		plan := &partition.Plan{Circuit: c, Bounds: []int{c.Len() / 2}, Arities: []int{4, 4}, Strategy: "manual"}
		ps, err := sc.ForPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps.states) != set {
			t.Fatalf("iteration %d: spine of %d states, want %d", i, len(ps.states), set)
		}
		if sc.Bytes() > (set+1)*per && sc.Len() > set {
			t.Fatalf("iteration %d: %d bytes resident over the %d cap", i, sc.Bytes(), (set+1)*per)
		}
	}
	if sc.Len() < set {
		t.Fatalf("cache over-evicted: %d states resident", sc.Len())
	}
}

// TestForPlanConcurrent exercises assembly under the race detector: many
// goroutines over plans sharing prefixes, against a small byte cap so
// eviction runs concurrently with lookups.
func TestForPlanConcurrent(t *testing.T) {
	base := workloads.QFT(4, true)
	sc := NewSnapshotCache(4 * statevec.StateBytes(4))
	bounds := []int{base.Len() / 2}
	variant := base.Clone()
	variant.RZ(0.25, 0)
	cuts, _ := spineCuts(&partition.Plan{Circuit: variant, Bounds: bounds, Arities: []int{4, 4}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c := base.Clone()
				c.RZ(float64((g+i)%5)+0.25, 0)
				plan := &partition.Plan{Circuit: c, Bounds: bounds, Arities: []int{4, 4}, Strategy: "manual"}
				ps, err := sc.ForPlan(plan)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(ps.cuts, cuts) || slices.Contains(ps.states, nil) {
					t.Errorf("assembled at cuts %v (a state missing: %t), want %v", ps.cuts, slices.Contains(ps.states, nil), cuts)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
