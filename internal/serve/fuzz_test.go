package serve

import (
	"encoding/json"
	"testing"
	"time"
)

// fuzzJobs seeds FuzzJobPrepare: a named circuit, an unknown name, inline
// QASM, both programs at once, and shots above the server's limit.
var fuzzJobs = []string{
	`{"circuit":"qft_n8","noise":"DC","shots":200,"seed":1,"batch_shots":64}`,
	`{"circuit":"nope_n3","shots":1}`,
	`{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n","noise":"ALL","shots":100,"mode":"baseline"}`,
	`{"circuit":"bv_n6","qasm":"OPENQASM 2.0;\nqreg q[1];\nx q[0];\n","shots":10}`,
	`{"circuit":"bv_n10","shots":1500}`,
}

// fuzzMaxShots bounds the fuzzed server's MaxShots; fuzzShotCap bounds the
// bodies planned at all, so planning stays cheap while a body between the
// two still reaches the over-limit path.
const (
	fuzzMaxShots = 1000
	fuzzShotCap  = 2000
)

// FuzzJobPrepare: on any job body of at most fuzzShotCap shots, prepare
// returns a 4xx error or a job whose every batch has a resolved run —
// promptly, and without panicking. It plans; nothing executes.
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
		done := make(chan struct{})
		go func() {
			defer close(done)
			j, herr = srv.prepare(&req)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("prepare still running after 10 s on %s", raw)
		}
		if herr != nil {
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("status %d (%s) on %s", herr.status, herr.msg, raw)
			}
			return
		}
		for i := range j.numBatches() {
			if j.runFor(i) == nil {
				t.Fatalf("batch %d of %d has no resolved run on %s", i, j.numBatches(), raw)
			}
		}
	})
}
