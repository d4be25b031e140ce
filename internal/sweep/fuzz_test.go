package sweep

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// fuzzSpecs seeds FuzzSweepPrepare: ordinary grids over every partitioner
// and mode, an ideal non-Clifford grid (every point is one ideal pass through
// the sweep's SnapshotCache), and two hostile partition axes whose leaf
// count is past int — XCP deep enough that 2^(k(k-1)/2) is +Inf, and a
// 2^64-leaf tuple.
var fuzzSpecs = []string{
	`{"circuit":"qft_n8","noise":[{"name":"DC"},{"p1":0.001,"p2":0.01}],"shots":[100,200],"repeats":2,"seed":5}`,
	`{"circuit":"qft_n10","noise":[{"name":"ALL"},{}],"shots":[500],"partitions":[{"strategy":"ucp","levels":4},{"strategy":"xcp"},{"strategy":"structure","structure":[8,4],"bounds":[30]}]}`,
	`{"circuit":"bv_n6","shots":[64],"mode":"baseline","backend":"statevec","no_reuse":true,"memory_budget_bytes":4096,"parallelism":3}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nh q[1];\n","shots":[10],"partitions":[{"strategy":"structure","structure":[2,2,2]}]}`,
	`{"circuit":"qft_n8","shots":[100],"partitions":[{"strategy":"xcp","levels":60}]}`,
	`{"circuit":"qft_n8","shots":[100],"partitions":[{"strategy":"structure","structure":[65536,65536,65536,65536]}]}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[3];\nt q[0];\nh q[0];\ncx q[0],q[1];\nrz(0.3) q[1];\nh q[2];\ncx q[1],q[2];\nt q[2];\n","noise":[{"name":"ideal"}],"shots":[16,32],"repeats":2,"seed":7,"backend":"statevec","partitions":[{"strategy":"structure","structure":[4,2,2],"bounds":[2,5]}]}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[4];\nh q[0];\nh q[1];\nccx q[0],q[1],q[2];\ncx q[2],q[3];\n","noise":[{"name":"DC"},{"p1":0.01,"p2":0.05}],"shots":[64],"repeats":2,"seed":3,"fidelity":true}`,
}

// FuzzSweepPrepare: on any wire spec of at most 64 points, Prepare returns
// an error or a grid of exactly GridSize() points — promptly, and without
// panicking. A small prepared grid (at most 4 points, 6 qubits and 256
// outcomes a point) is also run: RunRange delivers every point once, each
// with a histogram that sums to its outcome count.
func FuzzSweepPrepare(f *testing.F) {
	for _, s := range fuzzSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var spec Spec
		if json.Unmarshal([]byte(raw), &spec) != nil || spec.GridSize() > 64 {
			return
		}
		var prep *Prepared
		var err error
		within(t, raw, func() { prep, err = Prepare(&spec) })
		if err != nil {
			return
		}
		if prep.NumPoints() != spec.GridSize() {
			t.Fatalf("prepared %d points, GridSize %d, on %s", prep.NumPoints(), spec.GridSize(), raw)
		}
		if prep.NumPoints() > 4 || prep.MaxOutcomes() > 256 {
			return
		}
		for i := 0; i < prep.NumPoints(); i++ {
			if prep.Circuit(i).NumQubits > 6 {
				return
			}
		}
		delivered := make([]int, prep.NumPoints())
		var res *Result
		within(t, raw, func() {
			res, err = prep.RunRange(context.Background(), 0, prep.NumPoints(), func(pr *PointResult) error {
				delivered[pr.Index]++
				return nil
			})
		})
		if err != nil {
			t.Fatalf("RunRange: %v, on %s", err, raw)
		}
		for i, n := range delivered {
			if n != 1 {
				t.Fatalf("point %d delivered %d times, on %s", i, n, raw)
			}
		}
		for _, pr := range res.Points {
			sum := 0
			for _, c := range pr.Counts {
				sum += c
			}
			if sum != pr.Outcomes {
				t.Fatalf("point %d: histogram sums to %d, %d outcomes, on %s", pr.Index, sum, pr.Outcomes, raw)
			}
		}
	})
}

// within runs f and fails the test if it is still running after 10 s.
func within(t *testing.T, raw string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("still running after 10 s on %s", raw)
	}
}
