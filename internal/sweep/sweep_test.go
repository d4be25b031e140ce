package sweep

// Pure grid-engine unit tests: expansion order, seed derivation, spec
// validation, label canonicalization, plan dedupe bookkeeping. The
// execution-level determinism property tests live in the root package
// (sweep_test.go) where the canonical runner is available, and the service
// and distributed suites in internal/serve.

import (
	"math"
	"strings"
	"testing"

	"tqsim/internal/rng"
)

func validSpec() *Spec {
	return &Spec{
		Circuit: "qft_n8",
		Noise:   []NoisePoint{{Name: "DC"}, {P1: 0.001, P2: 0.01}},
		Shots:   []int{100, 200},
		Repeats: 2,
		Seed:    5,
	}
}

func TestExpansionOrderAndSeeds(t *testing.T) {
	prep, err := Prepare(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if prep.NumPoints() != 8 {
		t.Fatalf("expanded %d points, want 2 noise × 2 shots × 2 reps = 8", prep.NumPoints())
	}
	if got := validSpec().GridSize(); got != 8 {
		t.Errorf("GridSize() = %d before planning, want the expanded 8", got)
	}
	huge := validSpec()
	huge.Repeats = 1 << 62 // the axis product would overflow int
	if got := huge.GridSize(); got != MaxPoints+1 {
		t.Errorf("GridSize() = %d for an overflowing grid, want saturation at MaxPoints+1", got)
	}
	// Row-major: noise outermost (single circuit), repeats innermost.
	want := []struct {
		noise string
		shots int
		rep   int
	}{
		{"DC", 100, 0}, {"DC", 100, 1}, {"DC", 200, 0}, {"DC", 200, 1},
		{"depol(0.001,0.01)", 100, 0}, {"depol(0.001,0.01)", 100, 1},
		{"depol(0.001,0.01)", 200, 0}, {"depol(0.001,0.01)", 200, 1},
	}
	for i, w := range want {
		pt := prep.Point(i)
		if pt.Index != i || pt.Noise.Label() != w.noise || pt.Shots != w.shots || pt.Rep != w.rep {
			t.Errorf("point %d = %+v, want %+v", i, pt, w)
		}
		if pt.Seed != rng.SeedAt(5, uint64(i)) {
			t.Errorf("point %d seed %d, want rng.SeedAt derivation", i, pt.Seed)
		}
	}
	if prep.Point(0).Seed != 5 {
		t.Error("point 0 must keep the base seed")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Circuit = ""; s.QASM = "" }, // no source
		func(s *Spec) { s.QASM = "x" },                // two sources
		func(s *Spec) { s.Shots = nil },               // no shots axis
		func(s *Spec) { s.Shots = []int{0} },          // non-positive shots
		func(s *Spec) { s.Noise = []NoisePoint{{Name: "WAT"}} },
		func(s *Spec) { s.Noise = []NoisePoint{{Name: "DC", P1: 0.1}} }, // name + rates
		func(s *Spec) { s.Noise = []NoisePoint{{P1: 1.5}} },             // rate out of range
		func(s *Spec) { s.Mode = "magic" },
		func(s *Spec) { s.Backend = "abacus" }, // accepted at the parent, failed every point
		func(s *Spec) { s.Circuit = "nope_n9" },
		func(s *Spec) { s.Partitions = []PartitionSpec{{Strategy: "wat"}} },
		func(s *Spec) { s.Partitions = []PartitionSpec{{Strategy: "structure"}} }, // empty tuple
		func(s *Spec) { s.Shots = []int{1}; s.Repeats = MaxPoints + 1 },           // grid cap
		// Leaf counts past int, which must error rather than loop or wrap:
		// XCP deep enough that 2^(k(k-1)/2) is +Inf, a 2^64-leaf tuple.
		func(s *Spec) { s.Partitions = []PartitionSpec{{Strategy: "xcp", Levels: 60}} },
		func(s *Spec) {
			s.Partitions = []PartitionSpec{{Strategy: "structure", Structure: []int{65536, 65536, 65536, 65536}}}
		},
	}
	for i, mut := range bad {
		s := validSpec()
		mut(s)
		if _, err := Prepare(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestSpecRejectsNaNRates: a NaN rate is not in [0,1]. Let through, it made
// the dense channel fire after every gate while the reuse dry run never
// fired, so a sweep's histogram depended on NoReuse.
func TestSpecRejectsNaNRates(t *testing.T) {
	for _, np := range []NoisePoint{{P1: math.NaN(), P2: 0.01}, {P1: 0.001, P2: math.NaN()}} {
		s := validSpec()
		s.Noise = []NoisePoint{np}
		if _, err := Prepare(s); err == nil || !strings.Contains(err.Error(), "depolarizing rates must be in [0,1]") {
			t.Errorf("%+v: got %v, want the rate-range error", np, err)
		}
	}
}

func TestNoiseNamesCaseInsensitive(t *testing.T) {
	s := validSpec()
	s.Noise = []NoisePoint{{Name: "dc"}, {Name: "ideal"}, {Name: "Trr"}}
	prep, err := Prepare(s)
	if err != nil {
		t.Fatalf("lowercase noise names rejected: %v", err)
	}
	if got := prep.Point(0).Noise.Label(); got != "DC" {
		t.Errorf("label %q not canonicalized", got)
	}
	if m := prep.Point(0).Noise.Model(); m == nil || m.Name() != "DC" {
		t.Errorf("lowercase name resolved to %v", m.Name())
	}
	if m := (NoisePoint{Name: "ideal"}).Model(); m != nil {
		t.Error("ideal must resolve to the nil model")
	}
}

func TestPlanDedupeBookkeeping(t *testing.T) {
	// UCP ignores noise, so both noise points share one plan per shots
	// value but keep separate decisions (noise class differs).
	s := validSpec()
	s.Partitions = []PartitionSpec{{Strategy: "ucp", Levels: 3}}
	prep, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	if prep.plans != 2 {
		t.Errorf("built %d plans, want 2 (one per shots value, shared across noise)", prep.plans)
	}
	if len(prep.entries) != 4 {
		t.Errorf("built %d decisions, want 4 (per noise × shots)", len(prep.entries))
	}
	// Baseline mode ignores the partitioner axis entirely.
	b := validSpec()
	b.Mode = "baseline"
	b.Partitions = []PartitionSpec{{Strategy: "ucp"}, {Strategy: "xcp"}}
	bp, err := Prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	if bp.NumPoints() != 8 || b.GridSize() != 8 {
		t.Errorf("baseline sweep expanded %d points (GridSize %d), want 8 (partitions collapsed)", bp.NumPoints(), b.GridSize())
	}
	for i := 0; i < bp.NumPoints(); i++ {
		if got := bp.Point(i).Partition.Label(); got != "DCP" {
			t.Errorf("baseline point %d partition %q", i, got)
		}
	}
}

func TestPartitionLabels(t *testing.T) {
	cases := map[string]PartitionSpec{
		"DCP":    {},
		"UCP:3":  {Strategy: "UCP"},
		"XCP:5":  {Strategy: "xcp", Levels: 5},
		"(64,4)": {Strategy: "structure", Structure: []int{64, 4}},
	}
	for want, ps := range cases {
		if got := ps.Label(); got != want {
			t.Errorf("label %q, want %q", got, want)
		}
	}
	if !strings.Contains((NoisePoint{P1: 0.5}).Label(), "depol") {
		t.Error("anonymous depolarizing label")
	}
}
