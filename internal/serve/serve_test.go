package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tqsim"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func wantCounts(t *testing.T, ctx string, want map[uint64]int, got map[string]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: support %d vs %d", ctx, len(want), len(got))
	}
	for k, v := range want {
		if got[strconv.FormatUint(k, 10)] != v {
			t.Fatalf("%s: outcome %d: want %d, got %d", ctx, k, v, got[strconv.FormatUint(k, 10)])
		}
	}
}

// TestRoundTripByteIdenticalToRunTQSim is the acceptance test: a daemon job
// must return exactly the histogram tqsim.RunTQSim produces in-process for
// the same circuit, noise, shots and seed.
func TestRoundTripByteIdenticalToRunTQSim(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	c := tqsim.QFTCircuit(7)
	qasm, err := tqsim.SerializeQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	const shots, seed = 600, 42

	ref, err := tqsim.RunTQSim(c, tqsim.NoiseByName("DC"), shots, tqsim.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
		QASM: qasm, Noise: "DC", Shots: shots, Seed: seed,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if jr.Backend != ref.BackendName || jr.Structure != ref.Structure {
		t.Fatalf("served %s/%s, reference %s/%s", jr.Backend, jr.Structure, ref.BackendName, ref.Structure)
	}
	if jr.Decision == nil || jr.Decision.Why == "" {
		t.Fatalf("response lacks the planner decision: %s", body)
	}
	wantCounts(t, "round-trip", ref.Counts, jr.Counts)
}

// TestConcurrentJobsMatchSingleProcessRuns floods the bounded scheduler
// with concurrent jobs at distinct seeds; every histogram must be
// byte-identical to its single-process equivalent.
func TestConcurrentJobsMatchSingleProcessRuns(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxConcurrent: 4, QueueDepth: 32}))
	defer ts.Close()

	c := tqsim.QFTCircuit(6)
	qasm, err := tqsim.SerializeQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 300
	refs := make(map[uint64]map[uint64]int)
	for seed := uint64(1); seed <= 8; seed++ {
		res, err := tqsim.RunTQSim(c, tqsim.NoiseByName("DC"), shots, tqsim.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		refs[seed] = res.Counts
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for seed := uint64(1); seed <= 8; seed++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
				QASM: qasm, Noise: "DC", Shots: shots, Seed: seed,
			})
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, body)
				return
			}
			var jr JobResponse
			if err := json.Unmarshal(body, &jr); err != nil {
				errc <- fmt.Errorf("seed %d: %v", seed, err)
				return
			}
			for k, v := range refs[seed] {
				if jr.Counts[strconv.FormatUint(k, 10)] != v {
					errc <- fmt.Errorf("seed %d: outcome %d diverged", seed, k)
					return
				}
			}
			if len(jr.Counts) != len(refs[seed]) {
				errc <- fmt.Errorf("seed %d: support %d vs %d", seed, len(jr.Counts), len(refs[seed]))
			}
		}(seed)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := New(Config{}).Snapshot() // fresh server: zero counters sanity
	if st.JobsCompleted != 0 {
		t.Fatalf("fresh server reports completed jobs: %+v", st)
	}
}

// TestStreamingBatchesMergeDeterministically runs a multi-batch streaming
// job and checks (a) each batch line matches the single-process run at the
// derived batch seed, and (b) the final line merges them exactly.
func TestStreamingBatchesMergeDeterministically(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	c := tqsim.QFTCircuit(6)
	qasm, err := tqsim.SerializeQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	const shots, batch, seed = 500, 200, 9 // 200+200+100
	m := tqsim.NoiseByName("DC")

	req, err := json.Marshal(&JobRequest{
		QASM: qasm, Noise: "DC", Shots: shots, Seed: seed,
		BatchShots: batch, Stream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	wantSizes := []int{200, 200, 100}
	merged := map[uint64]int{}
	sc := bufio.NewScanner(resp.Body)
	var lines []batchLine
	for sc.Scan() {
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 || lines[0].Type != "plan" || lines[4].Type != "done" {
		t.Fatalf("stream shape wrong: %d lines", len(lines))
	}
	if lines[0].Decision == nil || lines[0].Batches != 3 {
		t.Fatalf("plan header incomplete: %+v", lines[0])
	}
	for i, l := range lines[1:4] {
		if l.Type != "batch" || l.Batch != i || l.Shots != wantSizes[i] {
			t.Fatalf("batch line %d wrong: %+v", i, l)
		}
		bseed := BatchSeed(seed, i)
		if l.Seed != bseed {
			t.Fatalf("batch %d seed %d, want %d", i, l.Seed, bseed)
		}
		ref, err := tqsim.RunTQSim(c, m, wantSizes[i], tqsim.Options{Seed: bseed})
		if err != nil {
			t.Fatal(err)
		}
		wantCounts(t, fmt.Sprintf("batch %d", i), ref.Counts, l.Counts)
		for k, v := range ref.Counts {
			merged[k] += v
		}
	}
	wantCounts(t, "done-merge", merged, lines[4].Counts)
	if lines[4].Outcomes < shots {
		t.Fatalf("outcomes %d below shots %d", lines[4].Outcomes, shots)
	}
}

// TestPlanEndpointAndCache: /v1/plan explains without running, and jobs
// after it run as usual.
func TestPlanEndpointAndCache(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/plan", &JobRequest{Circuit: "qft_n12", Shots: 2000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", resp.StatusCode, body)
	}
	var pr struct {
		Width    int           `json:"width"`
		Decision *DecisionJSON `json:"decision"`
		Explain  string        `json:"explain"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Width != 12 || pr.Decision == nil || pr.Decision.Backend != "statevec" || pr.Explain == "" {
		t.Fatalf("plan response wrong: %s", body)
	}
	if srv.Snapshot().JobsCompleted != 0 {
		t.Fatal("/v1/plan must not execute jobs")
	}

	for i := 0; i < 2; i++ {
		resp, body = postJSON(t, ts.URL+"/v1/jobs", &JobRequest{Circuit: "qft_n12", Shots: 2000, Seed: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status %d: %s", resp.StatusCode, body)
		}
	}
	st := srv.Snapshot()
	if st.JobsCompleted != 2 {
		t.Fatalf("jobs completed %d, want 2", st.JobsCompleted)
	}
}

// TestAdmissionControl: jobs whose planner estimate exceeds the server
// budget are rejected up front with the hpcmodel byte estimate, and a full
// queue answers 429.
func TestAdmissionControl(t *testing.T) {
	// 1 MiB budget: a 16-qubit dense plan (1 MiB per state, times levels+1)
	// can never fit.
	srv := New(Config{MemoryBudgetBytes: 1 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{Circuit: "qft_n16", Shots: 500, Seed: 1})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("memory budget")) {
		t.Fatalf("rejection unexplained: %s", body)
	}
	if srv.Snapshot().RejectedMemory == 0 {
		t.Fatalf("memory rejection not counted: %+v", srv.Snapshot())
	}

	// A budget that admits one worker's states must execute at the clamped
	// worker count: the served decision reports the parallelism that
	// actually ran, and counts stay byte-identical to the unclamped direct
	// run (histograms are parallelism-invariant).
	plan := tqsim.PlanDCP(tqsim.BenchmarkByName("qft_n12"), tqsim.NoiseByName("DC"), 500, tqsim.Options{})
	budget := int64(plan.Levels()+1) * (16 << 12)
	csrv := New(Config{MemoryBudgetBytes: budget})
	cts := httptest.NewServer(csrv)
	defer cts.Close()
	resp, body = postJSON(t, cts.URL+"/v1/jobs", &JobRequest{
		Circuit: "qft_n12", Noise: "DC", Shots: 500, Seed: 3, Parallelism: 8,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped job status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Decision.Parallelism != 1 {
		t.Fatalf("admitted at %d workers under a one-worker budget", jr.Decision.Parallelism)
	}
	ref, err := tqsim.RunTQSim(tqsim.BenchmarkByName("qft_n12"), tqsim.NoiseByName("DC"), 500,
		tqsim.Options{Seed: 3, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, "memory-clamped", ref.Counts, jr.Counts)

	// Queue bound: fill every slot and the whole queue white-box, then one
	// more job must bounce with 429.
	qsrv := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	qts := httptest.NewServer(qsrv)
	defer qts.Close()
	qsrv.pendMu.Lock()
	qsrv.pending = qsrv.cfg.MaxConcurrent + qsrv.cfg.QueueDepth
	qsrv.pendMu.Unlock()
	resp, body = postJSON(t, qts.URL+"/v1/jobs", &JobRequest{Circuit: "qft_n8", Shots: 100, Seed: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if qsrv.Snapshot().RejectedQueueFull != 1 {
		t.Fatalf("queue rejection not counted: %+v", qsrv.Snapshot())
	}
}

// TestRequestValidation covers the 400 paths.
func TestRequestValidation(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	bad := []JobRequest{
		{},                                       // no program
		{Circuit: "qft_n8"},                      // no shots
		{Circuit: "qft_n8", QASM: "x", Shots: 1}, // both programs
		{Circuit: "nope_n9", Shots: 10},          // unknown suite name
		{Circuit: "qft_n8", Shots: 10, Noise: "WAT"},      // unknown noise
		{Circuit: "qft_n8", Shots: 10, Mode: "magic"},     // unknown mode
		{Circuit: "qft_n8", Shots: 10, Backend: "abacus"}, // unknown backend
		{QASM: "OPENQASM 9;", Shots: 10},                  // bad qasm
	}
	for i, req := range bad {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", &req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
}

// TestUnknownCircuit: an unknown suite name is a 400 naming the circuit on
// both decoding doors that resolve names.
func TestUnknownCircuit(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	for _, tc := range []struct {
		path string
		req  any
		msg  string
	}{
		{"/v1/jobs", &JobRequest{Circuit: "nope_n3", Shots: 1}, `unknown suite circuit \"nope_n3\"`},
		{"/v1/sweeps", &SweepRequest{Spec: tqsim.SweepSpec{Circuit: "nope_n3", Shots: []int{1}}},
			`sweep: unknown suite circuit \"nope_n3\"`},
	} {
		resp, body := postJSON(t, ts.URL+tc.path, tc.req)
		want := `{"error":"` + tc.msg + `"}`
		if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(body)) != want {
			t.Errorf("%s: status %d body %s, want 400 %s", tc.path, resp.StatusCode, body, want)
		}
	}
}

// TestBaselineModeMatchesRunBackend pins the second determinism contract:
// mode "baseline" serves RunBackend's histogram byte-identically.
func TestBaselineModeMatchesRunBackend(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	c := tqsim.BenchmarkByName("bv_n10")
	ref, err := tqsim.RunBackend(c, tqsim.NoiseByName("DC"), 400, tqsim.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
		Circuit: "bv_n10", Noise: "DC", Shots: 400, Seed: 5, Mode: "baseline",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Backend != ref.BackendName {
		t.Fatalf("served backend %s, reference %s", jr.Backend, ref.BackendName)
	}
	wantCounts(t, "baseline-mode", ref.Counts, jr.Counts)
}

// TestClusterNodesReportEffectiveShards: a cluster job with a shard request
// that is not a power of two, or far beyond the register, runs promptly on
// the shards it gets, reports that count, and returns statevec's histogram.
func TestClusterNodesReportEffectiveShards(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	job := func(backend string, nodes int) JobResponse {
		t.Helper()
		var jr JobResponse
		within(t, fmt.Sprintf("%s on %d nodes", backend, nodes), func() {
			resp, body := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{
				Circuit: "bv_n6", Noise: "DC", Shots: 300, Seed: 4, Backend: backend, ClusterNodes: nodes,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
			} else if err := json.Unmarshal(body, &jr); err != nil {
				t.Error(err)
			}
		})
		return jr
	}
	ref := job("statevec", 0)
	for _, tc := range []struct{ nodes, shards int }{{6, 4}, {1 << 62, 32}} {
		jr := job("cluster", tc.nodes)
		if jr.Decision == nil || jr.Decision.ClusterNodes != tc.shards ||
			!strings.Contains(jr.Decision.Why, fmt.Sprintf("explicit request for %d shards", tc.shards)) {
			t.Fatalf("cluster_nodes %d: decision %+v, want %d shards", tc.nodes, jr.Decision, tc.shards)
		}
		if len(jr.Counts) != len(ref.Counts) {
			t.Fatalf("cluster_nodes %d: support %d, statevec %d", tc.nodes, len(jr.Counts), len(ref.Counts))
		}
		for k, v := range ref.Counts {
			if jr.Counts[k] != v {
				t.Fatalf("cluster_nodes %d: outcome %s: %d, statevec %d", tc.nodes, k, jr.Counts[k], v)
			}
		}
	}
}

// TestBatchArithmetic pins the lazy batch sizing: batches are never
// materialized, so sizes must come out right for every index.
func TestBatchArithmetic(t *testing.T) {
	cases := []struct {
		shots, batch int
		want         []int
	}{
		{500, 200, []int{200, 200, 100}},
		{500, 0, []int{500}},
		{500, -1, []int{500}},
		{500, 500, []int{500}},
		{500, 600, []int{500}},
		{1, 1, []int{1}},
		{4_194_304, 1, nil}, // max-shots at batch 1: count only, O(1) to ask
	}
	for _, tc := range cases {
		j := &job{shots: tc.shots, batchSize: tc.batch}
		if tc.want == nil {
			if j.numBatches() != tc.shots || j.batchShots(0) != 1 || j.batchShots(tc.shots-1) != 1 {
				t.Fatalf("batches(%d,%d): count %d", tc.shots, tc.batch, j.numBatches())
			}
			continue
		}
		if j.numBatches() != len(tc.want) {
			t.Fatalf("batches(%d,%d) count %d, want %d", tc.shots, tc.batch, j.numBatches(), len(tc.want))
		}
		total := 0
		for i, w := range tc.want {
			if got := j.batchShots(i); got != w {
				t.Fatalf("batches(%d,%d)[%d] = %d, want %d", tc.shots, tc.batch, i, got, w)
			}
			total += tc.want[i]
		}
		if total != tc.shots {
			t.Fatalf("batches(%d,%d) sum %d", tc.shots, tc.batch, total)
		}
	}
	if BatchSeed(7, 0) != 7 {
		t.Fatal("batch 0 must keep the job seed")
	}
	if BatchSeed(7, 1) == 7 || BatchSeed(7, 1) == BatchSeed(7, 2) {
		t.Fatal("derived batch seeds must differ")
	}
}

// TestGracefulDrain: a draining server 503s new jobs and shard leases with
// a Retry-After header, fails its health check so load balancers stop
// routing, and reports draining in stats.
func TestGracefulDrain(t *testing.T) {
	srv := New(Config{WorkerMode: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.BeginDrain()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", &JobRequest{Circuit: "qft_n8", Shots: 100, Seed: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a job: %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain lacks Retry-After")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/shard", &ShardRequest{
		Job: JobRequest{Circuit: "qft_n8", Shots: 100, BatchShots: 50}, From: 0, To: 1,
	})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining worker accepted a lease: %d", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining health check returned %d, want 503", hr.StatusCode)
	}
	st := srv.Snapshot()
	if !st.Draining || st.RejectedDraining != 2 {
		t.Fatalf("drain not reported: %+v", st)
	}

	// Every 503 carries Retry-After, not just drain: the memory-pressure
	// rejection path uses the same writer.
	rec := httptest.NewRecorder()
	writeError(rec, http.StatusServiceUnavailable, "no memory right now")
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	rec = httptest.NewRecorder()
	writeError(rec, http.StatusBadRequest, "bad")
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("non-503 must not advertise Retry-After")
	}
}

// TestCancelledStreamingJobStopsWork: disconnecting a streaming client
// must stop the in-flight batch work (counted as canceled, not failed) —
// the executor observes the request context instead of burning CPU on
// results nobody will read.
func TestCancelledStreamingJobStopsWork(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 200 batches of a 14-qubit circuit: long enough that cancellation
	// lands mid-job on any machine.
	reqBody, err := json.Marshal(&JobRequest{
		Circuit: "qft_n14", Noise: "DC", Shots: 4000, Seed: 2, BatchShots: 20, Stream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the plan header and the first batch line, then hang up.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2 && sc.Scan(); i++ {
	}
	cancel()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Snapshot()
		if st.JobsCanceled == 1 {
			if st.JobsFailed != 0 {
				t.Fatalf("cancelled job misfiled as failure: %+v", st)
			}
			if st.BatchesRun >= 200 {
				t.Fatalf("job ran to completion despite cancellation: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation never observed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
