package tqsim_test

// Seed-determinism regression tests: histograms must be a pure function of
// (circuit, noise, shots, seed, backend) — independent of Parallelism and
// identical across repeated runs. This guards the worker-pool and
// lock-free-leaf machinery of PR 1 and the hybrid dispatcher and backend
// registry of PR 2: any scheduling-dependent RNG consumption or unsynced
// accumulation shows up here as a histogram diff.

import (
	"testing"

	"tqsim"
)

func assertCountsEqual(t *testing.T, ctx string, want, got map[uint64]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: histogram support %d vs %d", ctx, len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: outcome %d: %d vs %d", ctx, k, v, got[k])
		}
	}
}

func TestRunBaselineDeterministicAcrossParallelism(t *testing.T) {
	c := tqsim.QSCCircuit(6, 5, 11)
	m := tqsim.SycamoreNoise()
	run := func(par int) *tqsim.BaselineResult {
		res, err := tqsim.RunBaselineBackend(c, m, 300, tqsim.Options{Seed: 5, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0)
	for _, par := range []int{1, 8} {
		assertCountsEqual(t, "baseline-par", ref.Counts, run(par).Counts)
	}
	assertCountsEqual(t, "baseline-repeat", ref.Counts, run(0).Counts)
}

func TestRunTQSimDeterministicAcrossParallelism(t *testing.T) {
	c := tqsim.QFTCircuit(6)
	m := tqsim.SycamoreNoise()
	opt := tqsim.Options{Seed: 9, CopyCost: 20}
	ref, err := tqsim.RunTQSim(c, m, 400, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 8} {
		o := opt
		o.Parallelism = par
		res, err := tqsim.RunTQSim(c, m, 400, o)
		if err != nil {
			t.Fatal(err)
		}
		assertCountsEqual(t, "tqsim-par", ref.Counts, res.Counts)
	}
	again, err := tqsim.RunTQSim(c, m, 400, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertCountsEqual(t, "tqsim-repeat", ref.Counts, again.Counts)
}

// TestRunTQSimDeterministicPerBackend extends the parallelism guarantee to
// every registered engine through the public API.
func TestRunTQSimDeterministicPerBackend(t *testing.T) {
	c := tqsim.CliffordPrefixCircuit(6, 3, 5)
	m := tqsim.SycamoreNoise()
	for _, name := range tqsim.Backends() {
		opt := tqsim.Options{Seed: 21, CopyCost: 20, Backend: name}
		ref, err := tqsim.RunTQSim(c, m, 256, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := opt
		o.Parallelism = 8
		res, err := tqsim.RunTQSim(c, m, 256, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertCountsEqual(t, name+"-par", ref.Counts, res.Counts)
	}
}

// TestWideCliffordHybridDispatch is the acceptance workload: a >=30-qubit
// Clifford circuit, infeasible on any dense engine (a 32-qubit state is
// 64 GiB), runs through the hybrid dispatch path with seed-deterministic
// counts that recover the noiseless answer on most shots.
func TestWideCliffordHybridDispatch(t *testing.T) {
	const width = 32
	secret := uint64(0xB6D1A5E7) & ((1 << (width - 1)) - 1)
	c := tqsim.BVCircuit(width, secret)
	m := tqsim.DepolarizingNoise(0.0005, 0.005)
	opt := tqsim.Options{Seed: 4, Backend: "stabilizer", Parallelism: 8}
	res, err := tqsim.RunBackend(c, m, 512, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes != 512 {
		t.Fatalf("outcomes %d", res.Outcomes)
	}
	// BV measures the secret on the data qubits; the ancilla (top qubit)
	// may read 0 or 1. Most shots must land on the secret.
	mask := (uint64(1) << (width - 1)) - 1
	hits := 0
	for out, n := range res.Counts {
		if out&mask == secret {
			hits += n
		}
	}
	if hits < 400 {
		t.Fatalf("secret recovered on %d/512 shots", hits)
	}
	o := opt
	o.Parallelism = 1
	again, err := tqsim.RunBackend(c, m, 512, o)
	if err != nil {
		t.Fatal(err)
	}
	assertCountsEqual(t, "wide-clifford", res.Counts, again.Counts)
}

// TestWideCircuitErrorsInsteadOfPanicking: when the stabilizer fast path
// does not apply (non-Pauli noise here), a wide circuit must surface a
// diagnostic error instead of reaching the dense executor's allocation
// panic.
func TestWideCircuitErrorsInsteadOfPanicking(t *testing.T) {
	c := tqsim.GHZCircuit(48)
	m := tqsim.NoiseByName("TRR") // thermal relaxation: not Pauli-only
	_, err := tqsim.RunBackend(c, m, 16, tqsim.Options{Backend: "stabilizer"})
	if err == nil {
		t.Fatal("expected a width error for non-Pauli noise at 48 qubits")
	}
	_, err = tqsim.RunBackend(c, nil, 16, tqsim.Options{Backend: "fusion"})
	if err == nil {
		t.Fatal("expected a width error for a dense backend at 48 qubits")
	}
}

// TestSubsampleCountsReturnsCopy is the regression test for the aliasing
// bug: at or below the target the function used to return the caller's
// map, so downstream mutation corrupted the original histogram.
func TestSubsampleCountsReturnsCopy(t *testing.T) {
	orig := map[uint64]int{1: 5, 2: 7}
	out := tqsim.SubsampleCounts(orig, 100, 3) // total 12 <= target 100
	if len(out) != 2 || out[1] != 5 || out[2] != 7 {
		t.Fatalf("subsample changed values: %v", out)
	}
	out[1] = 999
	out[3] = 1
	if orig[1] != 5 || orig[3] != 0 {
		t.Fatalf("mutating the result corrupted the input: %v", orig)
	}
	// Above-target path was already a fresh map; pin that too.
	big := map[uint64]int{0: 50, 1: 50}
	thin := tqsim.SubsampleCounts(big, 10, 3)
	total := 0
	for _, v := range thin {
		total += v
	}
	if total != 10 {
		t.Fatalf("thinned to %d outcomes, want 10", total)
	}
	thin[0] = 999
	if big[0] != 50 {
		t.Fatalf("mutating the thinned result corrupted the input: %v", big)
	}
}
