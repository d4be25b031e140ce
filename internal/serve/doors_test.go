package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tqsim"
	"tqsim/internal/planner"
	"tqsim/internal/statevec"
)

// TestThreeDoorsOneDecision: the facade (RunPlanContext), the sweep engine
// (a one-point RunSweep) and tqsimd (a one-batch POST /v1/jobs) all reach
// their engine through planner.Resolve/Admit and Resolved.Run, so for one
// request they must report the same backend and structure, byte-identical
// counts, and one peak-memory number: every door's admission estimate equals
// the PeakStateBytes the runs report — for auto and for every explicit
// engine, without a budget and under one that makes auto shed a worker
// (explicit runs shed none and are estimated at the two they run on).
func TestThreeDoorsOneDecision(t *testing.T) {
	const shots, seed, workers = 24, 11, 2
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	shed := false
	for _, src := range []*tqsim.Circuit{
		tqsim.BenchmarkByName("qft_n8"),
		tqsim.GHZCircuit(12), // Clifford-only
		tqsim.CliffordPrefixCircuit(8, 12, 5),
	} {
		qasm, err := tqsim.SerializeQASM(src)
		if err != nil {
			t.Fatal(err)
		}
		// The circuit every door sees is the parsed one.
		c, err := tqsim.ParseQASM(src.Name, qasm)
		if err != nil {
			t.Fatal(err)
		}
		for _, noiseName := range []string{"DC", "TR", "ideal"} {
			m := tqsim.NoiseByName(noiseName)
			for _, budget := range []int64{0, sheddingBudget(t, c, m, shots)} {
				for _, backend := range []string{"auto", "statevec", "stabilizer", "fusion", "densmat"} {
					if backend == "densmat" && (c.NumQubits > 8 || noiseName != "ideal" || budget > 0) {
						// A 12-qubit density matrix is 256 MiB; Kraus sums on
						// 4^8 entries would be most of this test's run time
						// (minutes under -race); and the engine's footprint
						// does not read the budget.
						continue
					}
					name := fmt.Sprintf("%s/%s/%s/budget=%d", c.Name, noiseName, backend, budget)

					// Door 1: the facade.
					opt := tqsim.Options{Seed: seed, CopyCost: 5, Backend: backend, Parallelism: workers, MemoryBudgetBytes: budget}
					plan := tqsim.PlanDCP(c, m, shots, opt)
					r, err := planner.Resolve(plan, m, backend, planner.Budget{MemoryBytes: budget, Parallelism: workers})
					if err != nil {
						t.Fatalf("%s: resolve: %v", name, err)
					}
					lib, err := tqsim.RunPlanContext(context.Background(), plan, m, opt)
					if err != nil {
						t.Fatalf("%s: facade: %v", name, err)
					}
					if lib.BackendName != r.Backend || lib.PeakStateBytes != r.EstPeakBytes {
						t.Errorf("%s: facade ran %s at peak %d, resolved %s estimated %d",
							name, lib.BackendName, lib.PeakStateBytes, r.Backend, r.EstPeakBytes)
					}
					if backend == "auto" && budget > 0 && r.Parallelism < workers {
						shed = true
					} else if want := min(workers, plan.Arities[0]); backend != "auto" && r.Parallelism != want {
						t.Errorf("%s: an explicit run resolved to %d workers, want %d", name, r.Parallelism, want)
					}

					// Door 2: a one-point sweep.
					spec := &tqsim.SweepSpec{
						QASM: qasm, Noise: []tqsim.SweepNoisePoint{{Name: noiseName}}, Shots: []int{shots},
						Seed: seed, CopyCost: 5, Backend: backend, Parallelism: workers, MemoryBudgetBytes: budget,
					}
					prep, err := tqsim.PrepareSweep(spec)
					if err != nil {
						t.Fatalf("%s: prepare sweep: %v", name, err)
					}
					sw, err := tqsim.RunSweep(spec)
					if err != nil {
						t.Fatalf("%s: sweep: %v", name, err)
					}
					pt := sw.Points[0]
					if pt.Backend != lib.BackendName || pt.Structure != lib.Structure ||
						pt.PeakStateBytes != lib.PeakStateBytes || prep.MaxEstPeakBytes() != r.EstPeakBytes {
						t.Errorf("%s: sweep ran %s %s at peak %d (estimated %d), facade %s %s at %d",
							name, pt.Backend, pt.Structure, pt.PeakStateBytes, prep.MaxEstPeakBytes(),
							lib.BackendName, lib.Structure, lib.PeakStateBytes)
					}
					wantCounts(t, name+": sweep", lib.Counts, countsJSON(pt.Counts))

					// Door 3: tqsimd.
					req := &JobRequest{
						QASM: qasm, Noise: noiseName, Shots: shots, Seed: seed, CopyCost: 5,
						Backend: backend, Parallelism: workers, MemoryBudgetBytes: budget,
					}
					j, herr := srv.prepare(req)
					if herr != nil {
						t.Fatalf("%s: prepare job: %v", name, herr)
					}
					resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
					}
					var jr JobResponse
					if err := json.Unmarshal(body, &jr); err != nil {
						t.Fatalf("%s: bad response %s: %v", name, body, err)
					}
					if jr.Backend != lib.BackendName || jr.Structure != lib.Structure || jr.Batches != 1 || j.peak() != r.EstPeakBytes {
						t.Errorf("%s: tqsimd ran %s %s in %d batches (admitted on %d bytes), facade %s %s at %d",
							name, jr.Backend, jr.Structure, jr.Batches, j.peak(), lib.BackendName, lib.Structure, lib.PeakStateBytes)
					}
					wantCounts(t, name+": tqsimd", lib.Counts, jr.Counts)
				}
			}
		}
	}
	if !shed {
		t.Error("no auto cell shed a worker: the budget axis is not exercising the clamp")
	}
}

// sheddingBudget returns a memory budget under which the circuit's DCP plan
// (planned under that same budget) holds one worker's dense states but not
// two: the fixed point of budget = 1.5 × one worker's base footprint.
func sheddingBudget(t *testing.T, c *tqsim.Circuit, m *tqsim.NoiseModel, shots int) int64 {
	t.Helper()
	state := statevec.StateBytes(c.NumQubits)
	var budget int64
	for range 8 {
		plan := tqsim.PlanDCP(c, m, shots, tqsim.Options{CopyCost: 5, MemoryBudgetBytes: budget})
		next := 3 * int64(plan.Levels()+1) * state / 2
		if next == budget {
			return budget
		}
		budget = next
	}
	t.Fatalf("%s: no stable shedding budget", c.Name)
	return 0
}
