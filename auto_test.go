package tqsim_test

// Acceptance tests for planner-driven dispatch through the public API:
// Options.Backend "auto" (the RunTQSim/RunBackend default) must route a
// wide pure-Clifford Pauli-noise plan to the stabilizer engine and a narrow
// non-Clifford plan to statevec, with an explainable Decision for both, and
// must keep the histogram byte-identical to an explicit selection of the
// same engine.

import (
	"strings"
	"testing"

	"tqsim"
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
// reported peak come from one function, so they agree for the decision that
// was executed — with quiet-segment reuse on (no budget, or one it fits),
// dropped (a budget with room for the workers' states only), and on a
// noise model that never reuses — and the peak stays inside any budget.
func TestRunPeakEqualsDecisionEstimate(t *testing.T) {
	c := tqsim.QFTCircuit(10)
	const state = int64(16 << 10)
	plan := tqsim.PlanStructure(c, []int{12, 3, 2})
	perWorker := int64(plan.Levels()+1) * state
	// Reuse adds the spine — 3 boundaries and 2·3 interior checkpoints, held
	// once — and 2 quiet-child states per worker.
	withReuse := 2*perWorker + (9+2*2)*state
	for _, tc := range []struct {
		noise            string
		workers          int
		budget, wantPeak int64
	}{
		{"DC", 2, 0, withReuse},
		{"DC", 2, withReuse, withReuse},
		{"DC", 2, withReuse - 1, 2 * perWorker},
		{"DC", 4, 3 * perWorker, 3 * perWorker}, // a worker shed, no room for reuse
		{"TR", 2, 0, 2 * perWorker},
	} {
		m := tqsim.NoiseByName(tc.noise)
		opt := tqsim.Options{Seed: 3, Backend: tqsim.AutoBackend, Parallelism: tc.workers, MemoryBudgetBytes: tc.budget}
		d, err := tqsim.DecidePlan(plan, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tqsim.RunPlan(plan, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if d.Backend != "statevec" || res.PeakStateBytes != d.EstPeakBytes || res.PeakStateBytes != tc.wantPeak {
			t.Errorf("%s, %d workers, budget %d: %s ran with peak %d, decision estimated %d, want %d",
				tc.noise, tc.workers, tc.budget, d.Backend, res.PeakStateBytes, d.EstPeakBytes, tc.wantPeak)
		}
		if reused := res.PrefixReuseHits+res.SiblingReuseHits > 0; reused != (tc.wantPeak > int64(d.Parallelism)*perWorker) {
			t.Errorf("%s, %d workers, budget %d: reuse hits %v disagree with the reported peak %d",
				tc.noise, tc.workers, tc.budget, reused, res.PeakStateBytes)
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
