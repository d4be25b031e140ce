package serve

// Conformance and regression suite for the content-addressed result store,
// the cross-job snapshot cache, and the serve-layer cache-correctness
// fixes (structural circuitHash, ctx-aware acquire, stats consistency).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tqsim"
	"tqsim/internal/circuit"
	"tqsim/internal/core"
	"tqsim/internal/gate"
	"tqsim/internal/qmath"
)

// storeConfig mirrors tqsimd's defaults: store and snapshot cache on.
func storeConfig() Config {
	return Config{StoreEntries: 64, SnapshotCacheBytes: 64 << 20}
}

// ghzQASM is a QASM workload for the replay grid (exercises the parse path
// rather than the benchmark registry).
const ghzQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
`

// postRaw posts and returns the raw response body bytes.
func postRaw(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url, body)
}

// stripElapsed removes the run-varying elapsed_ms field from a JSON body so
// two live runs can be compared byte-for-byte on everything deterministic.
func stripElapsed(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("strip elapsed_ms: %v in %s", err, body)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResultStoreReplayByteIdentical is the replay conformance grid:
// workload × backend resolution × response shape. The second identical
// request must return the byte-identical body without running a batch, and
// the stats must show the replay.
func TestResultStoreReplayByteIdentical(t *testing.T) {
	workloads := []struct {
		name string
		req  JobRequest
	}{
		// Tree-mode dense plan (multi-level at CopyCost 5) on a suite circuit.
		{"qft-tree-statevec", JobRequest{Circuit: "qft_n8", Noise: "DC", Shots: 400, Seed: 9, CopyCost: 5, Backend: "statevec"}},
		// Auto backend resolution (stabilizer-friendly Clifford circuit).
		{"bv-auto", JobRequest{Circuit: "bv_n10", Noise: "DC", Shots: 200, Seed: 5}},
		// QASM parse path, ideal noise, multi-batch split.
		{"ghz-qasm-batched", JobRequest{QASM: ghzQASM, Noise: "ideal", Shots: 300, Seed: 3, BatchShots: 64}},
		// Baseline mode.
		{"qft-baseline", JobRequest{Circuit: "qft_n8", Noise: "TR", Shots: 150, Seed: 11, Mode: "baseline"}},
	}
	for _, wl := range workloads {
		for _, stream := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stream=%v", wl.name, stream), func(t *testing.T) {
				srv := New(storeConfig())
				ts := httptest.NewServer(srv)
				defer ts.Close()

				req := wl.req
				req.Stream = stream
				resp1, body1 := postRaw(t, ts.URL+"/v1/jobs", &req)
				if resp1.StatusCode != http.StatusOK {
					t.Fatalf("cold run failed: %d: %s", resp1.StatusCode, body1)
				}
				batchesCold := srv.Snapshot().BatchesRun

				resp2, body2 := postRaw(t, ts.URL+"/v1/jobs", &req)
				if resp2.StatusCode != http.StatusOK {
					t.Fatalf("replay failed: %d: %s", resp2.StatusCode, body2)
				}
				if !bytes.Equal(body1, body2) {
					t.Fatalf("replay differs from cold run\ncold   %s\nreplay %s", body1, body2)
				}
				st := srv.Snapshot()
				if st.ResultsHits != 1 || st.ResultsMisses != 1 {
					t.Fatalf("results hits/misses %d/%d, want 1/1", st.ResultsHits, st.ResultsMisses)
				}
				if st.BatchesRun != batchesCold {
					t.Fatal("replay executed batches")
				}
				if st.JobsCompleted != 2 {
					t.Fatalf("jobs_completed %d, want 2", st.JobsCompleted)
				}
				if st.ResultsEntries == 0 || st.ResultsBytes == 0 {
					t.Fatalf("store reports %d entries / %d bytes after a put", st.ResultsEntries, st.ResultsBytes)
				}
			})
		}
	}
}

// TestResultStoreCrossShapeReplay: a job recorded from a non-streaming run
// replays as a stream (and vice versa) — both shapes come from one record.
func TestResultStoreCrossShapeReplay(t *testing.T) {
	srv := New(storeConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := JobRequest{Circuit: "qft_n8", Noise: "DC", Shots: 400, Seed: 2, BatchShots: 100}
	if resp, body := postRaw(t, ts.URL+"/v1/jobs", &req); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run failed: %d: %s", resp.StatusCode, body)
	}

	// Streamed replay of the non-streamed record.
	req.Stream = true
	resp, body := postRaw(t, ts.URL+"/v1/jobs", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream replay failed: %d: %s", resp.StatusCode, body)
	}
	if srv.Snapshot().ResultsHits != 1 {
		t.Fatal("stream request did not replay from the store")
	}
	// The replayed stream must be byte-identical to a live stream of the
	// same job (fresh server, so it runs cold) apart from the done line's
	// recorded elapsed_ms.
	refSrv := New(Config{})
	refTS := httptest.NewServer(refSrv)
	defer refTS.Close()
	refResp, refBody := postRaw(t, refTS.URL+"/v1/jobs", &req)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference stream failed: %d: %s", refResp.StatusCode, refBody)
	}
	gotLines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	refLines := bytes.Split(bytes.TrimSpace(refBody), []byte("\n"))
	if len(gotLines) != len(refLines) {
		t.Fatalf("stream line count %d vs reference %d", len(gotLines), len(refLines))
	}
	for i := range gotLines {
		got, ref := gotLines[i], refLines[i]
		if i == len(gotLines)-1 { // done line carries elapsed_ms
			got, ref = stripElapsed(t, got), stripElapsed(t, ref)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("stream line %d differs\nreplay %s\nlive   %s", i, gotLines[i], refLines[i])
		}
	}
}

// TestResultStoreDistributedReplay: a sharded job's merged result is stored
// on the coordinator and replays byte-identically without re-leasing.
func TestResultStoreDistributedReplay(t *testing.T) {
	cw := &countingWorker{inner: New(Config{WorkerMode: true, MaxConcurrent: 2})}
	ws := httptest.NewServer(cw)
	defer ws.Close()
	cfg := storeConfig()
	cfg.Workers = []string{ws.URL}
	coord := New(cfg)
	ts := httptest.NewServer(coord)
	defer ts.Close()

	req := distributedJob(42)
	resp1, body1 := postRaw(t, ts.URL+"/v1/jobs", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("distributed run failed: %d: %s", resp1.StatusCode, body1)
	}
	leased := cw.shards.Load()
	if leased == 0 {
		t.Fatal("job did not shard")
	}
	resp2, body2 := postRaw(t, ts.URL+"/v1/jobs", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("distributed replay failed: %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("distributed replay differs from the recorded run")
	}
	if cw.shards.Load() != leased {
		t.Fatal("replay leased shards to the worker")
	}
	if coord.Snapshot().ResultsHits != 1 {
		t.Fatal("replay not served from the store")
	}

	// Streamed replay of the distributed record: batch lines must come out
	// in index order even though shard completion order recorded them
	// arbitrarily.
	sreq := *req
	sreq.Stream = true
	resp3, body3 := postRaw(t, ts.URL+"/v1/jobs", &sreq)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("stream replay failed: %d", resp3.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(body3), []byte("\n"))
	next := 0
	for _, ln := range lines {
		var bl batchLine
		if err := json.Unmarshal(ln, &bl); err != nil {
			t.Fatalf("bad stream line %s: %v", ln, err)
		}
		if bl.Type != "batch" {
			continue
		}
		if bl.Batch != next {
			t.Fatalf("replayed batch %d out of order (want %d)", bl.Batch, next)
		}
		next++
	}
	if next != 16 {
		t.Fatalf("replayed %d batches, want 16", next)
	}
}

// TestResultStoreSweepReplay: sweeps replay byte-identically in both
// response shapes, and the replay runs zero points.
func TestResultStoreSweepReplay(t *testing.T) {
	for _, stream := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream=%v", stream), func(t *testing.T) {
			srv := New(storeConfig())
			ts := httptest.NewServer(srv)
			defer ts.Close()

			req := sweepReq()
			*req.Stream = stream
			resp1, body1 := postRaw(t, ts.URL+"/v1/sweeps", req)
			if resp1.StatusCode != http.StatusOK {
				t.Fatalf("cold sweep failed: %d: %s", resp1.StatusCode, body1)
			}
			pointsCold := srv.Snapshot().SweepPointsRun
			if pointsCold == 0 {
				t.Fatal("cold sweep ran no points")
			}
			resp2, body2 := postRaw(t, ts.URL+"/v1/sweeps", req)
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("sweep replay failed: %d: %s", resp2.StatusCode, body2)
			}
			if !bytes.Equal(body1, body2) {
				t.Fatalf("sweep replay differs from cold run\ncold   %.200s\nreplay %.200s", body1, body2)
			}
			st := srv.Snapshot()
			if st.ResultsHits != 1 || st.SweepPointsRun != pointsCold {
				t.Fatalf("replay hits %d, points run %d (cold %d)", st.ResultsHits, st.SweepPointsRun, pointsCold)
			}
			if st.SweepsCompleted != 2 {
				t.Fatalf("sweeps_completed %d, want 2", st.SweepsCompleted)
			}
		})
	}
}

// TestResultStoreSurvivesRestart: with a backing directory, a brand-new
// server over the same directory replays a previous instance's results —
// including as a stream — byte-identically, without simulating.
func TestResultStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := storeConfig()
	cfg.StoreDir = dir

	srv1 := New(cfg)
	if err := srv1.StoreError(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	req := JobRequest{Circuit: "qft_n8", Noise: "DC", Shots: 400, Seed: 7, CopyCost: 5, BatchShots: 100}
	resp1, body1 := postRaw(t, ts1.URL+"/v1/jobs", &req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run failed: %d: %s", resp1.StatusCode, body1)
	}
	sweep1 := sweepReq()
	sresp1, sbody1 := postRaw(t, ts1.URL+"/v1/sweeps", sweep1)
	if sresp1.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep failed: %d: %s", sresp1.StatusCode, sbody1)
	}
	ts1.Close()

	// The restarted daemon: same directory, fresh everything else.
	srv2 := New(cfg)
	if err := srv2.StoreError(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	resp2, body2 := postRaw(t, ts2.URL+"/v1/jobs", &req)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body1, body2) {
		t.Fatalf("restarted replay differs (status %d)", resp2.StatusCode)
	}
	sresp2, sbody2 := postRaw(t, ts2.URL+"/v1/sweeps", sweep1)
	if sresp2.StatusCode != http.StatusOK || !bytes.Equal(sbody1, sbody2) {
		t.Fatalf("restarted sweep replay differs (status %d)", sresp2.StatusCode)
	}
	st := srv2.Snapshot()
	if st.ResultsHits != 2 || st.BatchesRun != 0 || st.SweepPointsRun != 0 {
		t.Fatalf("restarted server simulated: %+v", st)
	}

	// Stream replay across the restart: the stored batch records survived.
	req.Stream = true
	resp3, body3 := postRaw(t, ts2.URL+"/v1/jobs", &req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("restarted stream replay failed: %d", resp3.StatusCode)
	}
	if !bytes.Contains(body3, []byte(`"type":"batch"`)) || !bytes.Contains(body3, []byte(`"type":"done"`)) {
		t.Fatalf("restarted stream replay incomplete: %.300s", body3)
	}
}

// TestSnapshotCacheCrossJobHits is the cross-job snapshot conformance test:
// a second job whose circuit shares only a gate prefix (and plan bounds)
// with the first is served boundary states from the cache — visible as
// snapshot_hits — and its body is byte-identical (modulo elapsed_ms) to
// the same request on a server with the cache disabled.
func TestSnapshotCacheCrossJobHits(t *testing.T) {
	base := tqsim.BenchmarkByName("qft_n8")
	qasm, err := tqsim.SerializeQASM(base)
	if err != nil {
		t.Fatal(err)
	}
	// Same gate prefix, different final rotation angle: DCP ignores angles,
	// so both circuits get identical plan bounds, and every boundary before
	// the final cut shares its prefix digest.
	qasmA := qasm + "rz(0.3) q[0];\n"
	qasmB := qasm + "rz(0.7) q[0];\n"
	mkReq := func(src string, seed uint64) *JobRequest {
		return &JobRequest{QASM: src, Noise: "DC", Shots: 400, Seed: seed, CopyCost: 5, Backend: "statevec"}
	}

	srv := New(Config{SnapshotCacheBytes: 64 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, body := postRaw(t, ts.URL+"/v1/jobs", mkReq(qasmA, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("job A failed: %d: %s", resp.StatusCode, body)
	}
	st0 := srv.Snapshot()
	if st0.SnapshotMisses == 0 {
		t.Skipf("plan produced no snapshot boundaries (structure changed?): %+v", st0)
	}

	respB, bodyB := postRaw(t, ts.URL+"/v1/jobs", mkReq(qasmB, 1))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("job B failed: %d: %s", respB.StatusCode, bodyB)
	}
	st1 := srv.Snapshot()
	if st1.SnapshotHits <= st0.SnapshotHits {
		t.Fatalf("job B sharing a prefix booked no snapshot hits: before %d after %d", st0.SnapshotHits, st1.SnapshotHits)
	}
	if st1.SnapshotBytes == 0 {
		t.Fatal("snapshot cache reports zero resident bytes")
	}

	// Byte-identity against a cache-disabled server: prefix reuse must be
	// histogram-preserving down to the last byte.
	refSrv := New(Config{})
	refTS := httptest.NewServer(refSrv)
	defer refTS.Close()
	respRef, bodyRef := postRaw(t, refTS.URL+"/v1/jobs", mkReq(qasmB, 1))
	if respRef.StatusCode != http.StatusOK {
		t.Fatalf("reference job failed: %d: %s", respRef.StatusCode, bodyRef)
	}
	if !bytes.Equal(stripElapsed(t, bodyB), stripElapsed(t, bodyRef)) {
		t.Fatalf("snapshot reuse changed the response\nreuse %s\nref   %s", bodyB, bodyRef)
	}
}

// TestSweepUsesSharedSnapshotCache: a sweep run after a job over the same
// circuit adopts the job's cached spine states, and its response — elapsed
// times aside, ops and prefix_hits included — is byte-identical to a
// cache-disabled server's, where the sweep shares a spine of its own.
func TestSweepUsesSharedSnapshotCache(t *testing.T) {
	srv := New(Config{SnapshotCacheBytes: 64 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, body := postRaw(t, ts.URL+"/v1/jobs",
		&JobRequest{Circuit: "qft_n8", Noise: "DC", Shots: 400, Seed: 1, CopyCost: 5, Backend: "statevec"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming job failed: %d: %s", resp.StatusCode, body)
	}
	st0 := srv.Snapshot()
	if st0.SnapshotMisses == 0 {
		t.Skip("plan produced no snapshot boundaries")
	}

	stream := false
	req := &SweepRequest{Spec: tqsim.SweepSpec{
		Circuit: "qft_n8", Noise: []tqsim.SweepNoisePoint{{Name: "DC"}},
		Shots: []int{400}, Seed: 1, CopyCost: 5, Backend: "statevec",
	}, Stream: &stream}
	resp, body := postRaw(t, ts.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep failed: %d: %s", resp.StatusCode, body)
	}
	if st := srv.Snapshot(); st.SnapshotHits <= st0.SnapshotHits {
		t.Fatalf("sweep booked no snapshot hits: before %d after %d", st0.SnapshotHits, st.SnapshotHits)
	}

	refTS := httptest.NewServer(New(Config{}))
	defer refTS.Close()
	respRef, bodyRef := postRaw(t, refTS.URL+"/v1/sweeps", req)
	if respRef.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep failed: %d: %s", respRef.StatusCode, bodyRef)
	}
	got, want := sweepTimeless(t, body), sweepTimeless(t, bodyRef)
	if !bytes.Equal(got, want) {
		t.Fatalf("the shared cache changed the sweep response\ncache %s\nown   %s", got, want)
	}
	if !bytes.Contains(got, []byte(`"prefix_hits":`)) {
		t.Fatalf("the sweep reused nothing, so the comparison proves nothing: %s", got)
	}
}

// sweepTimeless re-renders a non-streaming sweep body with every elapsed
// time zeroed: what two runs of one sweep must agree on byte for byte.
func sweepTimeless(t *testing.T, body []byte) []byte {
	t.Helper()
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decode sweep: %v in %s", err, body)
	}
	sr.ElapsedMS = 0
	for i := range sr.Results {
		sr.Results[i].ElapsedMS = 0
	}
	out, err := json.Marshal(&sr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestNoSpineWithoutReuse: a statevec job whose quiet-segment reuse the
// memory budget drops — one byte under the reuse footprint — is admitted on
// the base footprint and runs without a spine, so it neither computes nor
// caches one.
func TestNoSpineWithoutReuse(t *testing.T) {
	req := JobRequest{Circuit: "qft_n12", Noise: "DC", Shots: 2000, Seed: 1, Parallelism: 1}
	j, herr := New(Config{}).prepare(&req)
	if herr != nil {
		t.Fatal(herr)
	}
	plan := j.runFor(0).Plan
	footprint, _ := core.DensePeakBytes(plan, 1, true, 0)
	base, _ := core.DensePeakBytes(plan, 1, false, 0)
	req.MemoryBudgetBytes = footprint - 1

	srv := New(Config{SnapshotCacheBytes: 64 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, body := postRaw(t, ts.URL+"/v1/jobs", &req)
	var jr JobResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &jr) != nil {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if jr.Backend != "statevec" || jr.Structure != plan.Structure() || jr.Decision.EstPeakBytes != base {
		t.Fatalf("ran %s %s admitted at %d bytes, want statevec %s at the base footprint %d",
			jr.Backend, jr.Structure, jr.Decision.EstPeakBytes, plan.Structure(), base)
	}
	if st := srv.Snapshot(); st.SnapshotMisses != 0 || st.SnapshotBytes != 0 {
		t.Errorf("budget %d under the reuse footprint %d: snapshot_misses %d, snapshot_bytes %d; want 0 and 0",
			req.MemoryBudgetBytes, footprint, st.SnapshotMisses, st.SnapshotBytes)
	}
}

// TestCircuitHashDistinguishesUnitaries is the plan-cache collision
// regression. The old key hashed canonical QASM and fell back to
// name/width/length for unserializable circuits, so two same-shape circuits
// differing only in an explicit unitary matrix shared one plan-cache entry
// — the second executed the first's cached gate list.
func TestCircuitHashDistinguishesUnitaries(t *testing.T) {
	build := func(p complex128) *tqsim.Circuit {
		u := qmath.Identity(2)
		u.Set(1, 1, p)
		c := circuit.New("twin", 2)
		c.H(0).CX(0, 1)
		c.Append(gate.NewUnitary(u, "phase", 1))
		return c
	}
	a, b := build(1i), build(-1i)
	if _, err := tqsim.SerializeQASM(a); err == nil {
		t.Skip("unitary gates became serializable; the fallback no longer applies")
	}
	opt := &tqsim.Options{Backend: tqsim.AutoBackend}
	ha := circuitHash(a, "DC", "tqsim", opt)
	hb := circuitHash(b, "DC", "tqsim", opt)
	if ha == hb {
		t.Fatal("same-shape circuits with different unitaries share a plan-cache key")
	}
	if ha != circuitHash(build(1i), "DC", "tqsim", opt) {
		t.Fatal("circuitHash is not deterministic")
	}
}

// TestQueuedClientDisconnectCancels is the queued-cancellation regression:
// a client that disconnects while waiting for an execution slot must leave
// the queue immediately and book as canceled — not hold its queue slot
// until a slot frees and then execute into a dead connection.
func TestQueuedClientDisconnectCancels(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	// Hold the server's only slot so the next job queues.
	if err := srv.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	pending := func() int {
		srv.pendMu.Lock()
		defer srv.pendMu.Unlock()
		return srv.pending
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	body, err := json.Marshal(&JobRequest{Circuit: "bv_n10", Noise: "DC", Shots: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()

	waitFor("the job to queue", func() bool { return pending() == 2 })
	cancel() // the client disconnects while queued
	if err := <-done; err == nil {
		t.Fatal("request succeeded despite cancellation")
	}
	waitFor("the queued job to leave", func() bool { return pending() == 1 })
	waitFor("the cancel to be booked", func() bool { return srv.Snapshot().JobsCanceled == 1 })
	if st := srv.Snapshot(); st.JobsFailed != 0 || st.BatchesRun != 0 {
		t.Fatalf("cancelled-while-queued job failed or ran: %+v", st)
	}
	srv.release()
	// The released slot is free again: a normal job must run fine.
	resp, rbody := postRaw(t, ts.URL+"/v1/jobs", &JobRequest{Circuit: "bv_n10", Noise: "DC", Shots: 100, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel job failed: %d: %s", resp.StatusCode, rbody)
	}
}

// TestPlanCacheStatsConsistentUnderEviction hammers a tiny plan cache from
// many goroutines with distinct keys and checks the counter algebra the
// /v1/stats consumers rely on: every miss either stays resident or books an
// eviction, under the race detector.
func TestPlanCacheStatsConsistentUnderEviction(t *testing.T) {
	srv := New(Config{PlanCacheEntries: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const goroutines = 8
	const perG = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Distinct shots → distinct plan-cache keys; the /v1/plan
				// endpoint plans without executing.
				req := JobRequest{Circuit: "bv_n10", Noise: "DC", Shots: 101 + g*perG + i}
				buf, _ := json.Marshal(&req)
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(buf))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()

	st := srv.Snapshot()
	if st.PlanCacheMisses != goroutines*perG {
		t.Fatalf("misses %d, want %d (all keys distinct)", st.PlanCacheMisses, goroutines*perG)
	}
	if got := st.PlanCacheMisses - st.PlanCacheEvicted; got != uint64(st.PlanCacheEntries) {
		t.Fatalf("misses-evicted=%d but entries=%d: a plan was double-counted or lost",
			got, st.PlanCacheEntries)
	}
	if st.PlanCacheEntries > 4 {
		t.Fatalf("plan cache over its cap: %d entries", st.PlanCacheEntries)
	}
}
