package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"tqsim/internal/sweep"
)

// fuzzJobs seeds FuzzJobPrepare: a named circuit, an unknown name, inline
// QASM, both programs at once, shots above the server's limit, a small
// job of a ragged batch split that runs end to end, a split into more
// batches than a sweep may have points, and a cluster job asking for 2^62
// shards.
var fuzzJobs = []string{
	`{"circuit":"qft_n8","noise":"DC","shots":200,"seed":1,"batch_shots":64}`,
	`{"circuit":"nope_n3","shots":1}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n","noise":"ALL","shots":100,"mode":"baseline"}`,
	`{"circuit":"bv_n6","qasm":"OPENQASM 2.0;\nqreg q[1];\nx q[0];\n","shots":10}`,
	`{"circuit":"bv_n10","shots":200000}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[4];\nh q[0];\nh q[1];\nccx q[0],q[1],q[2];\ncx q[2],q[3];\n","shots":150,"seed":3,"batch_shots":40,"backend":"statevec"}`,
	`{"circuit":"bv_n6","shots":70000,"batch_shots":1}`,
	`{"circuit":"bv_n6","shots":100,"seed":2,"backend":"cluster","cluster_nodes":4611686018427387904}`,
}

// fuzzMaxShots bounds the fuzzed server's MaxShots: high enough that a
// split into more than sweep.MaxPoints batches gets past the shot limit.
// fuzzShotCap bounds the bodies prepared at all, so a body between the two
// still reaches the over-limit path.
const (
	fuzzMaxShots = 1 << 17
	fuzzShotCap  = 1 << 18
)

// FuzzJobPrepare: on any job body of at most fuzzShotCap shots, prepare
// returns a 4xx error or a job of numBatches units — promptly, and without
// panicking; a split into more than sweep.MaxPoints batches is a 413 before
// any planning. A small prepared job (at most 4 batches, 6 qubits and 256
// outcomes a batch) is also run: every batch is delivered once, each with a
// histogram that sums to its outcome count.
func FuzzJobPrepare(f *testing.F) {
	for _, s := range fuzzJobs {
		f.Add(s)
	}
	srv := New(Config{MaxShots: fuzzMaxShots})
	f.Fuzz(func(t *testing.T, raw string) {
		var req JobRequest
		if json.Unmarshal([]byte(raw), &req) != nil || req.Shots > fuzzShotCap {
			return
		}
		var j *job
		var herr *httpError
		within(t, raw, func() { j, herr = srv.prepare(&req) })
		// A body that passes the checks before planning but splits into
		// more batches than a sweep may have points.
		tooMany := (req.QASM == "") != (req.Circuit == "") && req.Shots > 0 && req.Shots <= fuzzMaxShots &&
			(&job{shots: req.Shots, batchSize: req.BatchShots}).numBatches() > sweep.MaxPoints
		if herr != nil {
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("status %d (%s) on %s", herr.status, herr.msg, raw)
			}
			if tooMany && herr.status != http.StatusRequestEntityTooLarge {
				t.Fatalf("more than %d batches: status %d (%s), want 413, on %s", sweep.MaxPoints, herr.status, herr.msg, raw)
			}
			return
		}
		if tooMany {
			t.Fatalf("prepared %d batches, above the %d-point cap, on %s", j.numBatches(), sweep.MaxPoints, raw)
		}
		if j.units() != j.numBatches() {
			t.Fatalf("prepared %d units for %d batches on %s", j.units(), j.numBatches(), raw)
		}
		if j.units() > 4 || j.prep.MaxOutcomes() > 256 || j.prep.Circuit(0).NumQubits > 6 {
			return
		}
		delivered := make([]int, j.units())
		within(t, raw, func() {
			herr = j.run(context.Background(), 0, j.units(), func(sb *ShardBatch) *httpError {
				delivered[sb.Batch]++
				sum := 0
				for _, c := range sb.counts {
					sum += c
				}
				if sum != sb.Outcomes {
					t.Errorf("batch %d: histogram sums to %d, %d outcomes, on %s", sb.Batch, sum, sb.Outcomes, raw)
				}
				return nil
			})
		})
		if herr != nil {
			t.Fatalf("run: %d %s, on %s", herr.status, herr.msg, raw)
		}
		for i, n := range delivered {
			if n != 1 {
				t.Fatalf("batch %d delivered %d times, on %s", i, n, raw)
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
