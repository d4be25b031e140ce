package tqsim_test

// Acceptance tests for planner-driven dispatch through the public API:
// Options.Backend "auto" (the RunTQSim/RunBackend default) must route a
// wide pure-Clifford Pauli-noise plan to the stabilizer engine and a narrow
// non-Clifford plan to statevec, with an explainable Decision for both, and
// must keep the histogram byte-identical to an explicit selection of the
// same engine.

import (
	"fmt"
	"strings"
	"testing"

	"tqsim"
	"tqsim/internal/planner"
	"tqsim/internal/stabilizer"
)

func TestAutoPicksStabilizerForWideClifford(t *testing.T) {
	c := tqsim.GHZCircuit(40) // dense state would be 16 TiB
	m := tqsim.SycamoreNoise()
	opt := tqsim.Options{Seed: 11}

	d, err := tqsim.Explain(c, m, 600, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Backend != "stabilizer" || d.Mode != "tableau-tree" {
		t.Fatalf("decision %s/%s, want stabilizer/tableau-tree\n%s", d.Backend, d.Mode, d)
	}
	if !strings.Contains(d.String(), "30-qubit dense limit") {
		t.Fatalf("decision does not explain the dense rejection:\n%s", d)
	}

	res, err := tqsim.RunTQSim(c, m, 600, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.BackendName != "stabilizer" {
		t.Fatalf("auto ran %q", res.BackendName)
	}
	if res.Outcomes < 600 {
		t.Fatalf("outcomes %d", res.Outcomes)
	}
	// Auto dispatch preserves the determinism contract.
	again, err := tqsim.RunTQSim(c, m, 600, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertCountsEqual(t, "auto-wide-clifford", res.Counts, again.Counts)
}

func TestAutoPicksStatevecForNarrowNonClifford(t *testing.T) {
	c := tqsim.QFTCircuit(8)
	m := tqsim.SycamoreNoise()
	opt := tqsim.Options{Seed: 3, CopyCost: 15}

	d, err := tqsim.Explain(c, m, 800, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Backend != "statevec" {
		t.Fatalf("decision %s, want statevec\n%s", d.Backend, d)
	}
	if d.CliffordOnly {
		t.Fatal("QFT misclassified as Clifford-only")
	}
	rejectedTableau := false
	for _, cand := range d.Rejected() {
		if cand.Mode == "tableau-tree" && strings.Contains(cand.Reason, "non-Clifford gate") {
			rejectedTableau = true
		}
	}
	if !rejectedTableau {
		t.Fatalf("tableau rejection unexplained:\n%s", d)
	}

	res, err := tqsim.RunTQSim(c, m, 800, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.BackendName != "statevec" {
		t.Fatalf("auto ran %q", res.BackendName)
	}

	// Byte-identical to selecting the decided engine explicitly at the
	// decided parallelism.
	explicit := opt
	explicit.Backend = d.Backend
	explicit.Parallelism = d.Parallelism
	ref, err := tqsim.RunTQSim(c, m, 800, explicit)
	if err != nil {
		t.Fatal(err)
	}
	assertCountsEqual(t, "auto-vs-explicit", ref.Counts, res.Counts)
}

// TestAutoHonorsMemoryClampedParallelism: when the memory budget forces the
// planner to shed workers, the run must execute at the clamped count — the
// reported peak may not exceed the budget the decision claimed to respect.
func TestAutoHonorsMemoryClampedParallelism(t *testing.T) {
	c := tqsim.QFTCircuit(12)
	m := tqsim.SycamoreNoise()
	plan := tqsim.PlanDCP(c, m, 400, tqsim.Options{CopyCost: 20})
	budget := int64(plan.Levels()+1) * (16 << 12) // exactly one worker's states
	opt := tqsim.Options{
		Seed: 2, CopyCost: 20, Backend: tqsim.AutoBackend,
		Parallelism: 8, MemoryBudgetBytes: budget,
	}
	d, err := tqsim.DecidePlan(plan, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Parallelism != 1 {
		t.Fatalf("decision kept %d workers under a one-worker budget", d.Parallelism)
	}
	res, err := tqsim.RunPlan(plan, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakStateBytes > budget {
		t.Fatalf("run peak %d exceeds the %d budget the decision enforced", res.PeakStateBytes, budget)
	}
}

// TestRunPeakEqualsDecisionEstimate: the planner's estimate and the run's
// reported peak come from one function, so they agree for the configuration
// that was executed — with quiet-segment reuse on (no budget, or one it
// fits), dropped (a budget with room for the workers' states only), and on a
// noise model or engine that never reuses — and an auto run's peak stays
// inside any budget. Runs that name their engine are estimated at the worker
// count they use (the requested one clamped to [1, A0], never GOMAXPROCS) and
// shed none, at Parallelism 0, 1 and 3; the densmat row is the one
// density-matrix footprint.
func TestRunPeakEqualsDecisionEstimate(t *testing.T) {
	qft, ghz := tqsim.QFTCircuit(10), tqsim.GHZCircuit(10)
	const state = int64(16 << 10)
	arities := []int{12, 3, 2}
	perWorker := int64(len(arities)+1) * state
	// Reuse adds the spine — 3 boundaries and 2·3 interior checkpoints, held
	// once — and 2 quiet-child states per worker.
	reuse := func(workers int64) int64 { return workers*perWorker + (9+2*workers)*state }
	tableau := int64(len(arities)+1) * stabilizer.TableauBytes(10)
	type row struct {
		c                *tqsim.Circuit
		noise, backend   string
		par              int
		budget, wantPeak int64
	}
	rows := []row{
		{qft, "DC", tqsim.AutoBackend, 2, 0, reuse(2)},
		{qft, "DC", tqsim.AutoBackend, 2, reuse(2), reuse(2)},
		{qft, "DC", tqsim.AutoBackend, 2, reuse(2) - 1, 2 * perWorker},
		{qft, "DC", tqsim.AutoBackend, 4, 3 * perWorker, 3 * perWorker}, // a worker shed, no room for reuse
		{qft, "TR", tqsim.AutoBackend, 2, 0, 2 * perWorker},
		{tqsim.QFTCircuit(6), "DC", "densmat", 0, 0, 16 << 12},
	}
	for _, par := range []int{0, 1, 3} {
		w := int64(max(par, 1))
		for _, budget := range []int64{0, 3 * perWorker} { // room for three workers' states, none for reuse
			statevec := reuse(w)
			if budget > 0 {
				statevec = w * perWorker
			}
			rows = append(rows,
				row{qft, "DC", "statevec", par, budget, statevec},
				row{qft, "DC", "fusion", par, budget, w * perWorker},
				row{qft, "DC", "stabilizer", par, budget, w * perWorker}, // hybrid handoff: dense
				row{ghz, "DC", "stabilizer", par, budget, w * tableau},   // tableau tree
				row{ghz, "TR", "stabilizer", par, budget, w * perWorker}, // non-Pauli noise: dense
			)
		}
	}
	for _, tc := range rows {
		plan := tqsim.PlanStructure(tc.c, arities)
		m := tqsim.NoiseByName(tc.noise)
		opt := tqsim.Options{Seed: 3, Backend: tc.backend, Parallelism: tc.par, MemoryBudgetBytes: tc.budget}
		r, err := planner.Resolve(plan, m, tc.backend, planner.Budget{MemoryBytes: tc.budget, Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tqsim.RunPlan(plan, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s on %s under %s, parallelism %d, budget %d", tc.backend, tc.c.Name, tc.noise, tc.par, tc.budget)
		if res.BackendName != r.Backend || res.PeakStateBytes != r.EstPeakBytes || res.PeakStateBytes != tc.wantPeak {
			t.Errorf("%s: %s ran with peak %d, resolved %s estimated %d, want %d",
				name, res.BackendName, res.PeakStateBytes, r.Backend, r.EstPeakBytes, tc.wantPeak)
		}
		if tc.backend == tqsim.AutoBackend {
			if d, err := tqsim.DecidePlan(plan, m, opt); err != nil || d.Backend != "statevec" || d.EstPeakBytes != r.EstPeakBytes {
				t.Errorf("%s: decision %+v (%v) disagrees with the resolved estimate %d", name, d, err, r.EstPeakBytes)
			}
		} else if want := max(tc.par, 1); r.Parallelism != want || r.Decision != nil {
			t.Errorf("%s: resolved %d workers (want %d), decision %v", name, r.Parallelism, want, r.Decision)
		}
		if reused := res.PrefixReuseHits+res.SiblingReuseHits > 0; r.Backend == "statevec" && reused != (tc.wantPeak > int64(r.Parallelism)*perWorker) {
			t.Errorf("%s: reuse hits %v disagree with the reported peak %d", name, reused, res.PeakStateBytes)
		}
	}
}

// TestAutoErrorNamesEstimatedBytes: when no engine is viable the error must
// carry the hpcmodel state-vector estimate, matching denseWidthCheck's
// diagnostic style.
func TestAutoErrorNamesEstimatedBytes(t *testing.T) {
	c := tqsim.GHZCircuit(48)
	m := tqsim.NoiseByName("TRR") // non-Pauli: no polynomial route
	_, err := tqsim.RunTQSim(c, m, 100, tqsim.Options{})
	if err == nil {
		t.Fatal("expected a planner error at 48 qubits under thermal noise")
	}
	if !strings.Contains(err.Error(), "4 PiB") {
		t.Fatalf("error lacks the hpcmodel estimate: %v", err)
	}

	// The explicit-backend path (denseWidthCheck) must report the same
	// estimate, so planner rejections and CLI errors read identically.
	_, err = tqsim.RunBackend(c, nil, 16, tqsim.Options{Backend: "fusion"})
	if err == nil {
		t.Fatal("expected a width error for a dense backend at 48 qubits")
	}
	if !strings.Contains(err.Error(), "4 PiB") {
		t.Fatalf("denseWidthCheck lacks the hpcmodel estimate: %v", err)
	}
}
