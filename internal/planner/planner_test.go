package planner

import (
	"strings"
	"testing"

	"tqsim/internal/circuit"
	"tqsim/internal/core"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/stabilizer"
	"tqsim/internal/workloads"
)

// TestDecisionTable pins the dispatch policy across the workload grid ×
// noise class × width plane: each row is (circuit shape, noise, budget) →
// (backend, mode). Changing a cost constant that flips one of these rows
// must update this table deliberately.
func TestDecisionTable(t *testing.T) {
	pauli := noise.NewSycamore()
	thermal := noise.ByName("TRR")
	var ideal *noise.Model

	cases := []struct {
		name        string
		plan        *partition.Plan
		noise       *noise.Model
		budget      Budget
		wantBackend string
		wantMode    string
	}{
		// Clifford-only × Pauli noise: tableau tree at any width ≤ 64.
		{"ghz8/pauli", dcp(workloads.GHZ(8), pauli, 2000), pauli, Budget{}, "stabilizer", "tableau-tree"},
		{"ghz40/pauli", dcp(workloads.GHZ(40), pauli, 2000), pauli, Budget{}, "stabilizer", "tableau-tree"},
		{"bv32/pauli", dcp(workloads.BV(32, 0xABCDE), pauli, 1000), pauli, Budget{}, "stabilizer", "tableau-tree"},
		{"clifford56/ideal", dcp(workloads.Clifford(56, 6, 3), ideal, 500), ideal, Budget{}, "stabilizer", "tableau-tree"},

		// Non-Clifford, narrow: dense state vector (the acceptance shape).
		{"qft10/pauli", dcp(workloads.QFT(10, true), pauli, 2000), pauli, Budget{}, "statevec", ""},
		{"qsc8/pauli", dcp(workloads.QSC(8, 6, 1), pauli, 2000), pauli, Budget{}, "statevec", ""},
		{"qft6/thermal", dcp(workloads.QFT(6, true), thermal, 1000), thermal, Budget{}, "statevec", ""},

		// Long Clifford prefix + short non-Clifford tail under Pauli noise:
		// hybrid handoff shadows the prefix.
		{"cliffprefix12/pauli", dcp(workloads.CliffordPrefix(12, 24, 5), pauli, 2000), pauli, Budget{}, "stabilizer", "hybrid-handoff"},

		// Clifford circuit under non-Pauli noise: tableaux cannot absorb the
		// channels, so a narrow circuit falls back to dense kernels.
		{"ghz10/thermal", dcp(workloads.GHZ(10), thermal, 1000), thermal, Budget{}, "statevec", ""},

		// Ideal non-Clifford runs stay on the dense kernels: one ideal pass
		// serves every leaf.
		{"qsc8/ideal", dcp(workloads.QSC(8, 6, 1), ideal, 2000), ideal, Budget{}, "statevec", ""},

		// Explicit shard request: cluster wins outright when viable.
		{"qft10/pauli/shards", dcp(workloads.QFT(10, true), pauli, 2000), pauli, Budget{ClusterNodes: 8}, "cluster", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Decide(tc.plan, tc.noise, tc.budget)
			if err != nil {
				t.Fatalf("Decide: %v", err)
			}
			if d.Backend != tc.wantBackend || d.Mode != tc.wantMode {
				t.Fatalf("chose %s/%s, want %s/%s\n%s",
					d.Backend, d.Mode, tc.wantBackend, tc.wantMode, d)
			}
			if d.Why == "" || len(d.Candidates) != 6 {
				t.Fatalf("decision not explainable: why=%q candidates=%d", d.Why, len(d.Candidates))
			}
			if d.EstCost <= 0 {
				t.Fatalf("chosen candidate carries no cost estimate: %+v", d)
			}
		})
	}
}

// TestDecisionExplainsRejections asserts the two acceptance-criteria shapes
// produce Decisions whose candidate tables explain both the choice and the
// rejections.
func TestDecisionExplainsRejections(t *testing.T) {
	pauli := noise.NewSycamore()

	// 40-qubit pure Clifford + Pauli noise → stabilizer; dense engines must
	// be rejected with the width (and byte-estimate) reason.
	d, err := Decide(dcp(workloads.GHZ(40), pauli, 2000), pauli, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Backend != "stabilizer" || d.Mode != "tableau-tree" {
		t.Fatalf("40q Clifford chose %s/%s", d.Backend, d.Mode)
	}
	if !d.CliffordOnly || !d.PauliNoise || d.Width != 40 {
		t.Fatalf("plan facts wrong: %+v", d)
	}
	found := 0
	for _, c := range d.Rejected() {
		if c.Backend == "statevec" || c.Backend == "fusion" || c.Backend == "cluster" {
			if !strings.Contains(c.Reason, "30-qubit dense limit") || !strings.Contains(c.Reason, "TiB") {
				t.Fatalf("dense rejection lacks width/bytes: %q", c.Reason)
			}
			found++
		}
	}
	if found != 3 {
		t.Fatalf("expected 3 dense rejections, got %d\n%s", found, d)
	}

	// Narrow non-Clifford → statevec; the tableau candidate must name the
	// first non-Clifford gate index.
	d, err = Decide(dcp(workloads.QFT(10, true), pauli, 2000), pauli, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Backend != "statevec" {
		t.Fatalf("narrow non-Clifford chose %s", d.Backend)
	}
	var tableau *Candidate
	for i := range d.Candidates {
		if d.Candidates[i].Mode == "tableau-tree" {
			tableau = &d.Candidates[i]
		}
	}
	if tableau == nil || tableau.Viable || !strings.Contains(tableau.Reason, "non-Clifford gate at index") {
		t.Fatalf("tableau rejection unexplained: %+v", tableau)
	}
}

// TestMemoryBudgetShedsWorkersThenRejects drives the admission arithmetic:
// a budget that fits only a single worker clamps Parallelism to 1, and a
// budget below one state set rejects every dense engine.
func TestMemoryBudgetShedsWorkersThenRejects(t *testing.T) {
	pauli := noise.NewSycamore()
	plan := dcp(workloads.QFT(12, true), pauli, 2000)
	levels := plan.Levels()
	stateBytes := int64(16) << 12

	oneWorker := Budget{Parallelism: 8, MemoryBytes: int64(levels+1) * stateBytes}
	d, err := Decide(plan, pauli, oneWorker)
	if err != nil {
		t.Fatal(err)
	}
	if d.Parallelism != 1 {
		t.Fatalf("expected memory clamp to 1 worker, got %d", d.Parallelism)
	}
	if d.EstPeakBytes > oneWorker.MemoryBytes {
		t.Fatalf("peak %d exceeds budget %d", d.EstPeakBytes, oneWorker.MemoryBytes)
	}

	tooSmall := Budget{MemoryBytes: stateBytes} // < (levels+1) states even for 1 worker
	if _, err := Decide(plan, pauli, tooSmall); err == nil {
		t.Fatal("expected no-viable-engine error under a one-state budget")
	} else if !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("budget rejection not explained: %v", err)
	}
}

// TestCliffordPrefixLen pins the prefix scan against hand-built circuits.
func TestCliffordPrefixLen(t *testing.T) {
	c := workloads.GHZ(5)
	if got := CliffordPrefixLen(c); got != c.Len() {
		t.Fatalf("GHZ prefix %d, want %d", got, c.Len())
	}
	c.T(0).H(1)
	want := c.Len() - 2
	if got := CliffordPrefixLen(c); got != want {
		t.Fatalf("prefix %d, want %d", got, want)
	}
}

// TestDeciderDeterministic: same inputs, same Decision — the property the
// tqsimd plan cache relies on.
func TestDeciderDeterministic(t *testing.T) {
	pauli := noise.NewSycamore()
	plan := dcp(workloads.CliffordPrefix(10, 16, 7), pauli, 1500)
	a, err := Decide(plan, pauli, Budget{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decide(plan, pauli, Budget{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("decisions diverged:\n%s\nvs\n%s", a, b)
	}
}

func dcp(c *circuit.Circuit, m *noise.Model, shots int) *partition.Plan {
	return partition.Dynamic(c, m, shots, partition.DCPOptions{CopyCost: 20})
}

func TestWorkerSlots(t *testing.T) {
	cases := []struct {
		est, budget int64
		maxc, want  int
	}{
		{1 << 20, 4 << 20, 8, 4},  // budget-bound
		{1 << 20, 64 << 20, 4, 4}, // slot-bound
		{1 << 20, 0, 4, 4},        // unlimited memory
		{8 << 20, 4 << 20, 4, 0},  // never fits
		{0, 4 << 20, 4, 4},        // no estimate: slot-bound
	}
	for _, tc := range cases {
		if got := WorkerSlots(tc.est, tc.budget, tc.maxc); got != tc.want {
			t.Fatalf("WorkerSlots(%d,%d,%d) = %d, want %d", tc.est, tc.budget, tc.maxc, got, tc.want)
		}
	}
	if got := WorkerSlots(1<<20, 1<<40, 0); got < 1 {
		t.Fatalf("zero maxConcurrent must default to GOMAXPROCS, got %d", got)
	}
}

// TestResolve pins the one place a backend name becomes a run configuration:
// auto adopts the Decision (engine, mode, memory-clamped workers, estimate,
// shard count unless fixed), an explicit name is taken at its word at the
// requested worker count clamped to [1, A0] with the planner consulted only
// by Admit, an observable run maps auto to statevec and never takes the
// tableau route, and explicit "stabilizer" gets the tableau tree exactly
// where the auto candidate would — Clifford-only ∧ Pauli-only — and the
// hybrid otherwise.
func TestResolve(t *testing.T) {
	pauli := noise.NewSycamore()
	thermal := noise.ByName("TRR")
	ghz := partition.FromStructure(workloads.GHZ(12), []int{6, 2})
	qft := partition.FromStructure(workloads.QFT(8, true), []int{6, 2})
	pfx := partition.FromStructure(workloads.CliffordPrefix(8, 12, 5), []int{6, 2})

	cases := []struct {
		name        string
		plan        *partition.Plan
		noise       *noise.Model
		backend     string
		budget      Budget
		wantBackend string
		wantMode    string
		wantWorkers int
	}{
		{"auto/clifford", ghz, pauli, Auto, Budget{Parallelism: 3}, "stabilizer", ModeTableauTree, 3},
		{"empty-is-auto", ghz, pauli, "", Budget{Parallelism: 3}, "stabilizer", ModeTableauTree, 3},
		{"auto/prefix", pfx, pauli, Auto, Budget{Parallelism: 2}, "stabilizer", ModeHybrid, 2},
		{"auto/dense", qft, pauli, Auto, Budget{Parallelism: 2}, "statevec", "", 2},
		{"auto/shards", qft, pauli, Auto, Budget{Parallelism: 2, ClusterNodes: 4}, "cluster", "", 2},
		{"auto/observable", ghz, pauli, Auto, Budget{Parallelism: 2, Observable: true}, "statevec", "", 2},

		{"explicit/unset-workers", qft, pauli, "statevec", Budget{}, "statevec", "", 1},
		{"explicit/clamped-to-arity", qft, pauli, "fusion", Budget{Parallelism: 64}, "fusion", "", 6},
		{"explicit/densmat", qft, pauli, "densmat", Budget{}, "densmat", "", 1},
		{"stabilizer/clifford+pauli", ghz, pauli, "stabilizer", Budget{Parallelism: 2}, "stabilizer", ModeTableauTree, 2},
		{"stabilizer/clifford+ideal", ghz, nil, "stabilizer", Budget{}, "stabilizer", ModeTableauTree, 1},
		{"stabilizer/clifford+thermal", ghz, thermal, "stabilizer", Budget{}, "stabilizer", ModeHybrid, 1},
		{"stabilizer/non-clifford", qft, pauli, "stabilizer", Budget{}, "stabilizer", ModeHybrid, 1},
		{"stabilizer/observable", ghz, pauli, "stabilizer", Budget{Observable: true}, "stabilizer", ModeHybrid, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Resolve(tc.plan, tc.noise, tc.backend, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if r.Backend != tc.wantBackend || r.Mode != tc.wantMode || r.Parallelism != tc.wantWorkers {
				t.Fatalf("resolved %s/%q at %d workers, want %s/%q at %d",
					r.Backend, r.Mode, r.Parallelism, tc.wantBackend, tc.wantMode, tc.wantWorkers)
			}
			auto := (tc.backend == "" || tc.backend == Auto) && !tc.budget.Observable
			if (r.Decision != nil) != auto {
				t.Fatalf("Resolve consulted the planner: %v, want %v", r.Decision != nil, auto)
			}
			if auto && (r.EstPeakBytes != r.Decision.EstPeakBytes || r.Mode != r.Decision.Mode) {
				t.Fatalf("auto run %+v departs from its decision %+v", r, r.Decision)
			}
			if want := tc.budget.ClusterNodes; want > 0 && r.ClusterNodes != want {
				t.Fatalf("shard count %d, budget fixed %d", r.ClusterNodes, want)
			}
			// Admit resolves identically and always carries the candidate table.
			a, err := Admit(tc.plan, tc.noise, tc.backend, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if a.Decision == nil || a.Backend != r.Backend || a.Mode != r.Mode ||
				a.Parallelism != r.Parallelism || a.EstPeakBytes != r.EstPeakBytes {
				t.Fatalf("Admit resolved %+v, Resolve %+v", a, r)
			}
			// The estimate is the footprint of the mode that runs.
			tableau := int64(r.Parallelism) * int64(tc.plan.Levels()+1) * stabilizer.TableauBytes(tc.plan.Circuit.NumQubits)
			if (r.Mode == ModeTableauTree) != (r.EstPeakBytes == tableau) {
				t.Fatalf("mode %q estimated at %d bytes (tableau footprint %d)", r.Mode, r.EstPeakBytes, tableau)
			}
		})
	}

	// A budget no engine fits: Resolve still takes an explicit name at its
	// word, Admit (and auto) refuse.
	tiny := Budget{MemoryBytes: 1}
	if _, err := Resolve(qft, pauli, "statevec", tiny); err != nil {
		t.Fatalf("explicit Resolve consulted the planner: %v", err)
	}
	if _, err := Admit(qft, pauli, "statevec", tiny); err == nil {
		t.Fatal("Admit accepted a plan no engine can run inside the budget")
	}
	if _, err := Resolve(qft, pauli, Auto, tiny); err == nil {
		t.Fatal("auto Resolve accepted a plan no engine can run inside the budget")
	}
}

// TestCheckBackend: "", Auto and every registered engine pass; any other
// name is an error that lists the choices.
func TestCheckBackend(t *testing.T) {
	for _, name := range append([]string{"", Auto}, core.Backends()...) {
		if err := CheckBackend(name); err != nil {
			t.Errorf("CheckBackend(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"abacus", "AUTO", " statevec"} {
		err := CheckBackend(name)
		if err == nil || !strings.Contains(err.Error(), "statevec") {
			t.Errorf("CheckBackend(%q) = %v, want an error listing the engines", name, err)
		}
	}
}
