package serve

// Multi-worker integration suite for the distributed shard protocol: an
// in-process coordinator fronting three in-process workers (httptest), with
// fault injection for the failover paths. The acceptance property
// throughout: a sharded job's merged histogram is byte-identical to the
// single-process run of the same request at the same seed — including
// after a worker is killed mid-job and its leases are re-dispatched.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"tqsim"
	"tqsim/internal/metrics"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
	"tqsim/internal/sweep"
)

// countingWorker wraps a worker handler and counts shard leases served.
type countingWorker struct {
	inner  http.Handler
	shards atomic.Int64
}

func (c *countingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" {
		c.shards.Add(1)
	}
	c.inner.ServeHTTP(w, r)
}

// killableWorker serves exactly one shard lease, then fails every request —
// a worker that dies mid-job.
type killableWorker struct {
	inner  http.Handler
	leases atomic.Int64
	killed atomic.Bool
}

func (k *killableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" && k.leases.Add(1) > 1 {
		k.killed.Store(true)
	}
	if k.killed.Load() {
		http.Error(w, "worker killed", http.StatusInternalServerError)
		return
	}
	k.inner.ServeHTTP(w, r)
}

// sameJSONCounts asserts two histograms serialize to identical bytes
// (encoding/json sorts map keys, so byte equality is histogram equality).
func sameJSONCounts(t *testing.T, ctx string, want, got map[string]int) {
	t.Helper()
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, g) {
		t.Fatalf("%s: histograms differ\nwant %s\ngot  %s", ctx, w, g)
	}
}

// singleProcessReference runs the request on a fresh single-process server.
func singleProcessReference(t *testing.T, req *JobRequest) *JobResponse {
	t.Helper()
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run failed: %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	return &jr
}

// distributedJob is the suite's standard multi-batch request: 16 batches.
func distributedJob(seed uint64) *JobRequest {
	return &JobRequest{Circuit: "qft_n8", Noise: "DC", Shots: 800, Seed: seed, BatchShots: 50}
}

func TestDistributedMergeByteIdenticalToSingleProcess(t *testing.T) {
	var counters []*countingWorker
	var urls []string
	for i := 0; i < 3; i++ {
		cw := &countingWorker{inner: New(Config{WorkerMode: true, MaxConcurrent: 2})}
		ws := httptest.NewServer(cw)
		defer ws.Close()
		counters = append(counters, cw)
		urls = append(urls, ws.URL)
	}
	coord := New(Config{Workers: urls})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	req := distributedJob(42)
	ref := singleProcessReference(t, req)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed job failed: %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if !jr.Distributed {
		t.Fatal("job did not report distributed execution")
	}
	if jr.Batches != 16 || jr.Outcomes != ref.Outcomes {
		t.Fatalf("batches %d outcomes %d, reference outcomes %d", jr.Batches, jr.Outcomes, ref.Outcomes)
	}
	sameJSONCounts(t, "distributed merge", ref.Counts, jr.Counts)

	st := coord.Snapshot()
	if st.ShardsDispatched == 0 || st.BatchesRun != 16 {
		t.Fatalf("coordinator did not shard: %+v", st)
	}
	if st.WorkersAlive != 3 || st.WorkersTotal != 3 {
		t.Fatalf("pool accounting wrong: %+v", st)
	}
	total := int64(0)
	for _, cw := range counters {
		total += cw.shards.Load()
	}
	if total == 0 {
		t.Fatal("no worker served a shard")
	}

	// Re-running the identical request over a different worker count (one
	// worker) must merge to the identical histogram.
	solo := New(Config{Workers: urls[:1]})
	ts2 := httptest.NewServer(solo)
	defer ts2.Close()
	resp, body = postJSON(t, ts2.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-worker job failed: %d: %s", resp.StatusCode, body)
	}
	var jr2 JobResponse
	if err := json.Unmarshal(body, &jr2); err != nil {
		t.Fatal(err)
	}
	sameJSONCounts(t, "one-worker merge", ref.Counts, jr2.Counts)
}

// TestDistributedBudgetPlansLikeSingleProcess: on servers with a memory
// budget, a job plans under the budget it is admitted on — the request's,
// else the server's — wherever it runs. The coordinator pins that budget
// into its leases, so its worker must plan the tree a single-process server
// with the same config plans, and a one-point sweep of the same cell plans
// it too. The budget here caps DCP's levels (the unbudgeted plan of a batch
// is two-level) while the tableau engine's own footprint fits either way.
func TestDistributedBudgetPlansLikeSingleProcess(t *testing.T) {
	c := tqsim.CliffordCircuit(12, 10, 3)
	qasm, err := tqsim.SerializeQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	const shots, batch, seed = 2000, 1000, 5
	m := tqsim.NoiseByName("DC")
	budget := statevec.StateBytes(c.NumQubits) * 5 / 2
	free := tqsim.PlanDCP(c, m, batch, tqsim.Options{})
	capped := tqsim.PlanDCP(c, m, batch, tqsim.Options{MemoryBudgetBytes: budget})
	if free.Structure() == capped.Structure() {
		t.Fatalf("budget %d does not cap DCP's levels: %s either way", budget, free.Structure())
	}
	req := &JobRequest{QASM: qasm, Noise: "DC", Shots: shots, Seed: seed, BatchShots: batch}
	post := func(url string) *JobResponse {
		t.Helper()
		resp, body := postJSON(t, url+"/v1/jobs", req)
		var jr JobResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &jr) != nil {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		return &jr
	}

	single := httptest.NewServer(New(Config{MemoryBudgetBytes: budget}))
	defer single.Close()
	ref := post(single.URL)
	if ref.Backend != "stabilizer" || ref.Structure != capped.Structure() {
		t.Errorf("single process ran %s %s, want stabilizer %s (planned under the server budget)",
			ref.Backend, ref.Structure, capped.Structure())
	}
	resp, body := postJSON(t, single.URL+"/v1/sweeps", &SweepRequest{Stream: new(bool), Spec: sweep.Spec{
		QASM: qasm, Noise: []sweep.NoisePoint{{Name: "DC"}}, Shots: []int{batch}, Seed: seed}})
	var sr SweepResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &sr) != nil || len(sr.Results) != 1 {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	if sr.Results[0].Structure != ref.Structure {
		t.Errorf("one-point sweep ran %s, the job's batches %s", sr.Results[0].Structure, ref.Structure)
	}

	worker := httptest.NewServer(New(Config{WorkerMode: true, MemoryBudgetBytes: budget}))
	defer worker.Close()
	coord := httptest.NewServer(New(Config{Workers: []string{worker.URL}, MemoryBudgetBytes: budget}))
	defer coord.Close()
	jr := post(coord.URL)
	if !jr.Distributed {
		t.Fatal("job did not report distributed execution")
	}
	if jr.Backend != ref.Backend || jr.Structure != ref.Structure {
		t.Errorf("distributed job ran %s %s, single process %s %s", jr.Backend, jr.Structure, ref.Backend, ref.Structure)
	}
	sameJSONCounts(t, "budgeted distributed merge", ref.Counts, jr.Counts)
}

// TestPinnedWireReprepares: what a coordinator leases is the pinned wire
// form of a job or sweep, and a worker with the same config that
// re-prepares it must arrive at the same work — per unit the same plan
// structure, engine, mode and resolved worker count, and the same admission
// estimate, which placement divides worker budgets by. Covered for both
// doors, with and without a server budget that caps DCP's levels, on auto
// and explicit engines, with and without a requested worker count.
func TestPinnedWireReprepares(t *testing.T) {
	clifford, err := tqsim.SerializeQASM(tqsim.CliffordCircuit(12, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Both circuits are 12 qubits wide: two and a half states is a budget
	// under which DCP plans flat where it would otherwise cut.
	binding := statevec.StateBytes(12) * 5 / 2
	// wire sends a lease through JSON, as the coordinator does.
	wire := func(lease *ShardRequest) *ShardRequest {
		t.Helper()
		raw, err := json.Marshal(lease)
		if err != nil {
			t.Fatal(err)
		}
		var out ShardRequest
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	same := func(name string, a, b prepared) {
		t.Helper()
		if a.units() != b.units() || a.peak() != b.peak() {
			t.Errorf("%s: %d units admitted on %d bytes, re-prepared %d units on %d bytes",
				name, a.units(), a.peak(), b.units(), b.peak())
			return
		}
		for i := range a.units() {
			x, y := a.prep.Resolved(i), b.prep.Resolved(i)
			if x.Plan.Structure() != y.Plan.Structure() || x.Backend != y.Backend || x.Mode != y.Mode || x.Parallelism != y.Parallelism {
				t.Errorf("%s: unit %d resolved %s %s%s at %d workers, re-prepared %s %s%s at %d",
					name, i, x.Plan.Structure(), x.Backend, x.Mode, x.Parallelism,
					y.Plan.Structure(), y.Backend, y.Mode, y.Parallelism)
			}
		}
	}
	for _, budget := range []int64{0, binding} {
		coord := New(Config{MemoryBudgetBytes: budget})
		worker := New(Config{MemoryBudgetBytes: budget, WorkerMode: true})
		for _, src := range []struct{ circuit, qasm string }{{"qft_n12", ""}, {"", clifford}} {
			for _, backend := range []string{"auto", "statevec", "fusion", "stabilizer"} {
				for _, par := range []int{0, 2} {
					name := fmt.Sprintf("%s/budget=%d/%s/parallelism=%d", src.circuit, budget, backend, par)
					if src.circuit == "" {
						name = "clifford" + name
					}

					req := &JobRequest{Circuit: src.circuit, QASM: src.qasm, Noise: "DC", Shots: 2300,
						BatchShots: 1000, Seed: 1, Backend: backend, Parallelism: par}
					j, herr := coord.prepare(req)
					if herr != nil {
						t.Fatalf("%s: prepare job: %s", name, herr.msg)
					}
					lease := wire(j.lease(0, j.units()))
					w, herr := worker.prepare(&lease.Job)
					if herr != nil {
						t.Fatalf("%s: re-prepare job: %s", name, herr.msg)
					}
					same(name+" job", j.prepared, w.prepared)

					sreq := &SweepRequest{Spec: sweep.Spec{Circuit: src.circuit, QASM: src.qasm,
						Noise: []sweep.NoisePoint{{Name: "DC"}}, Shots: []int{1000, 300}, Seed: 1,
						Backend: backend, Parallelism: par}}
					sj, herr := coord.prepareSweep(sreq)
					if herr != nil {
						t.Fatalf("%s: prepare sweep: %s", name, herr.msg)
					}
					lease = wire(sj.lease(0, sj.units()))
					ws, herr := worker.preparedSweepForLease(lease.Sweep)
					if herr != nil {
						t.Fatalf("%s: re-prepare sweep: %s", name, herr.msg)
					}
					same(name+" sweep", sj.prepared, ws.prepared)
				}
			}
		}
	}
}

func TestDistributedFailoverKillWorkerMidJob(t *testing.T) {
	kw := &killableWorker{inner: New(Config{WorkerMode: true, MaxConcurrent: 2})}
	var urls []string
	for i := 0; i < 3; i++ {
		var h http.Handler = New(Config{WorkerMode: true, MaxConcurrent: 2})
		if i == 1 {
			h = kw
		}
		ws := httptest.NewServer(h)
		defer ws.Close()
		urls = append(urls, ws.URL)
	}
	coord := New(Config{Workers: urls})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	req := distributedJob(7)
	ref := singleProcessReference(t, req)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover job failed: %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	sameJSONCounts(t, "failover merge", ref.Counts, jr.Counts)
	if jr.Outcomes != ref.Outcomes {
		t.Fatalf("outcomes %d, want %d", jr.Outcomes, ref.Outcomes)
	}

	// The killed worker must actually have died mid-job (it saw more than
	// one lease), its unacked leases must have been re-dispatched, and the
	// failure recorded — never double-counted (outcome equality above
	// already proves that).
	if !kw.killed.Load() {
		t.Fatal("fault injection never fired: the worker was not offered a second lease")
	}
	st := coord.Snapshot()
	if st.WorkerFailures == 0 || st.ShardsRequeued == 0 {
		t.Fatalf("failover not recorded: %+v", st)
	}
	if st.WorkersAlive != 2 {
		t.Fatalf("dead worker still counted alive: %+v", st)
	}
	if st.BatchesRun != 16 {
		t.Fatalf("batches run %d, want 16", st.BatchesRun)
	}
}

func TestDistributedPlacementSkipsWorkerJobCannotFit(t *testing.T) {
	// Worker 0 advertises a memory budget below one worker-state set of the
	// job; planner-driven placement must never lease to it.
	tiny := &countingWorker{inner: New(Config{WorkerMode: true, MemoryBudgetBytes: 2048})}
	big := &countingWorker{inner: New(Config{WorkerMode: true})}
	tinyS := httptest.NewServer(tiny)
	defer tinyS.Close()
	bigS := httptest.NewServer(big)
	defer bigS.Close()

	coord := New(Config{Workers: []string{tinyS.URL, bigS.URL}})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	req := distributedJob(3)
	ref := singleProcessReference(t, req)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("placement job failed: %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	sameJSONCounts(t, "placement merge", ref.Counts, jr.Counts)
	if tiny.shards.Load() != 0 {
		t.Fatalf("coordinator leased %d shards to a worker the job cannot fit on", tiny.shards.Load())
	}
	if big.shards.Load() == 0 {
		t.Fatal("the fitting worker served nothing")
	}
}

func TestDistributedLocalFallbackWhenPoolIsDown(t *testing.T) {
	// Both workers are unreachable from the start: the coordinator must
	// finish the job locally with the identical histogram.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	dead.Close() // closed listener: connection refused

	coord := New(Config{Workers: []string{dead.URL, "http://127.0.0.1:1"}})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	req := distributedJob(11)
	ref := singleProcessReference(t, req)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback job failed: %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	sameJSONCounts(t, "local fallback merge", ref.Counts, jr.Counts)
	st := coord.Snapshot()
	if st.WorkersAlive != 0 {
		t.Fatalf("dead pool counted alive: %+v", st)
	}
	if st.BatchesRun != 16 {
		t.Fatalf("batches run %d, want 16", st.BatchesRun)
	}
}

func TestShardEndpointRequiresWorkerMode(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/shard", &ShardRequest{Job: *distributedJob(1), From: 0, To: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("non-worker accepted a lease: %d: %s", resp.StatusCode, body)
	}

	// A worker advertises itself and serves a lease directly.
	ws := httptest.NewServer(New(Config{WorkerMode: true, MaxConcurrent: 3, MemoryBudgetBytes: 1 << 30}))
	defer ws.Close()
	hr, err := http.Get(ws.URL + "/v1/worker")
	if err != nil {
		t.Fatal(err)
	}
	var info WorkerInfo
	if err := json.NewDecoder(hr.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !info.Worker || info.MaxConcurrent != 3 || info.MemoryBudgetBytes != 1<<30 || info.Draining {
		t.Fatalf("worker info wrong: %+v", info)
	}

	resp, body = postJSON(t, ws.URL+"/v1/shard", &ShardRequest{Job: *distributedJob(5), From: 2, To: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker lease failed: %d: %s", resp.StatusCode, body)
	}
	var sr ShardResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Batches) != 3 {
		t.Fatalf("lease [2,5) returned %d batches", len(sr.Batches))
	}
	for k, sb := range sr.Batches {
		i := k + 2
		if sb.Batch != i || sb.Seed != BatchSeed(5, i) || sb.Outcomes < 50 {
			t.Fatalf("shard batch %d wrong: %+v", i, sb)
		}
	}

	// Lease bounds are validated.
	resp, body = postJSON(t, ws.URL+"/v1/shard", &ShardRequest{Job: *distributedJob(5), From: 4, To: 99})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range lease accepted: %d: %s", resp.StatusCode, body)
	}
}

// TestShardPartitionMergeDeterminism is the property test for the
// BatchSeed / merge contract: any partition of a job's batches over 1..4
// workers, merged in any order, equals the flat sequential merge.
func TestShardPartitionMergeDeterminism(t *testing.T) {
	c := tqsim.QFTCircuit(5)
	m := tqsim.NoiseByName("DC")
	const shots, batch, seed = 330, 50, 123 // 6 full batches + ragged 30
	j := &job{shots: shots, batchSize: batch}
	n := j.numBatches()

	// Per-batch histograms, computed once: batch i is a pure function of
	// (circuit, noise, size_i, BatchSeed(seed, i)).
	per := make([]map[uint64]int, n)
	flat := map[uint64]int{}
	for i := 0; i < n; i++ {
		res, err := tqsim.RunTQSim(c, m, j.batchShots(i), tqsim.Options{Seed: BatchSeed(seed, i)})
		if err != nil {
			t.Fatal(err)
		}
		per[i] = res.Counts
		metrics.MergeCounts(flat, res.Counts)
	}

	equal := func(ctx string, got map[uint64]int) {
		t.Helper()
		if len(got) != len(flat) {
			t.Fatalf("%s: support %d vs %d", ctx, len(got), len(flat))
		}
		for k, v := range flat {
			if got[k] != v {
				t.Fatalf("%s: outcome %d: %d vs %d", ctx, k, got[k], v)
			}
		}
	}

	r := rng.New(99)
	for workers := 1; workers <= 4; workers++ {
		// Three partition schemes: round-robin, contiguous ranges, random.
		assign := make([][]int, 3)
		for i := 0; i < n; i++ {
			assign[0] = append(assign[0], i%workers)
			assign[1] = append(assign[1], i*workers/n)
			assign[2] = append(assign[2], r.Intn(workers))
		}
		for scheme, owners := range assign {
			// Each worker merges its own batches; worker merges then merge
			// in reverse worker order (a different order than arrival).
			perWorker := make([]map[uint64]int, workers)
			for w := range perWorker {
				perWorker[w] = map[uint64]int{}
			}
			for i, w := range owners {
				metrics.MergeCounts(perWorker[w], per[i])
			}
			got := map[uint64]int{}
			for w := workers - 1; w >= 0; w-- {
				metrics.MergeCounts(got, perWorker[w])
			}
			equal("workers="+strconv.Itoa(workers)+" scheme="+strconv.Itoa(scheme), got)
		}
	}
}
