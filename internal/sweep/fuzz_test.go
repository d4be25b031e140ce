package sweep

import (
	"encoding/json"
	"testing"
	"time"
)

// fuzzSpecs seeds FuzzSweepPrepare: ordinary grids over every partitioner
// and mode, and two hostile partition axes whose leaf count is past int —
// XCP deep enough that 2^(k(k-1)/2) is +Inf, and a 2^64-leaf tuple.
var fuzzSpecs = []string{
	`{"circuit":"qft_n8","noise":[{"name":"DC"},{"p1":0.001,"p2":0.01}],"shots":[100,200],"repeats":2,"seed":5}`,
	`{"circuit":"qft_n10","noise":[{"name":"ALL"},{}],"shots":[500],"partitions":[{"strategy":"ucp","levels":4},{"strategy":"xcp"},{"strategy":"structure","structure":[8,4],"bounds":[30]}]}`,
	`{"circuit":"bv_n6","shots":[64],"mode":"baseline","backend":"statevec","no_reuse":true,"memory_budget_bytes":4096,"parallelism":3}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nh q[1];\n","shots":[10],"partitions":[{"strategy":"structure","structure":[2,2,2]}]}`,
	`{"circuit":"qft_n8","shots":[100],"partitions":[{"strategy":"xcp","levels":60}]}`,
	`{"circuit":"qft_n8","shots":[100],"partitions":[{"strategy":"structure","structure":[65536,65536,65536,65536]}]}`,
}

// FuzzSweepPrepare: on any wire spec of at most 64 points, Prepare returns
// an error or a grid of exactly GridSize() points — promptly, and without
// panicking.
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
		done := make(chan struct{})
		go func() {
			defer close(done)
			prep, err = Prepare(&spec)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Prepare still running after 10 s on %s", raw)
		}
		if err == nil && prep.NumPoints() != spec.GridSize() {
			t.Fatalf("prepared %d points, GridSize %d, on %s", prep.NumPoints(), spec.GridSize(), raw)
		}
	})
}
