package serve

// Elastic membership suite: the liveness state machine, the join/heartbeat
// endpoint, the circuit breaker, and the regressions of this PR — a worker
// that dies mid-job must rejoin that same job after revival, and a 503
// carrying Retry-After must be retried after a capped wait instead of
// costing the worker its place in the job. Plus the drain-with-leases-in-
// flight contracts on both roles.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// getStats decodes the coordinator's /v1/stats payload.
func getStats(t *testing.T, url string) *Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// announceLoop heartbeats a worker URL to a coordinator every interval until
// stop closes — a miniature JoinFleet under test control.
func announceLoop(t *testing.T, coordURL, workerURL string, interval time.Duration, stop <-chan struct{}) {
	t.Helper()
	body, err := json.Marshal(&WorkerAnnounce{
		URL:  workerURL,
		Info: WorkerInfo{Worker: true, MaxConcurrent: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			resp, err := http.Post(coordURL+"/v1/workers", "application/json",
				bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
}

func TestLivenessStateMachine(t *testing.T) {
	cfg := Config{SuspectAfter: 5 * time.Second, DeadAfter: 15 * time.Second}
	w := &workerClient{status: workerAlive, elastic: true, lastSeen: time.Now()}

	now := w.lastSeen
	for _, tc := range []struct {
		age  time.Duration
		want string
	}{
		{0, workerAlive},
		{3 * time.Second, workerAlive},
		{6 * time.Second, workerSuspect},
		{16 * time.Second, workerDead},
	} {
		if got := w.stateLocked(cfg, now.Add(tc.age)); got != tc.want {
			t.Errorf("elastic worker at age %v: state %q, want %q", tc.age, got, tc.want)
		}
	}

	// Static (never-announced) workers are exempt from heartbeat aging.
	s := &workerClient{status: workerAlive, lastSeen: now.Add(-time.Hour)}
	if got := s.stateLocked(cfg, now); got != workerAlive {
		t.Errorf("static worker aged to %q; probe-based liveness must not age out", got)
	}

	// Explicit death dominates any heartbeat age.
	w.status = workerDead
	if got := w.stateLocked(cfg, now); got != workerDead {
		t.Errorf("dead worker reported %q", got)
	}

	// An announce revives and counts the revival exactly once.
	r := newRegistry(Config{JitterSeed: 1})
	r.addLocked("http://w1")
	r.byURL["http://w1"].status = workerDead
	if joined, revived := r.announce(&WorkerAnnounce{URL: "http://w1"}); joined || !revived {
		t.Fatalf("announce of a dead known worker: joined=%v revived=%v", joined, revived)
	}
	if joined, revived := r.announce(&WorkerAnnounce{URL: "http://w1"}); joined || revived {
		t.Fatalf("steady heartbeat misread: joined=%v revived=%v", joined, revived)
	}
	if joined, _ := r.announce(&WorkerAnnounce{URL: "http://w2"}); !joined {
		t.Fatal("first announce of a new worker did not join")
	}
	if got := r.byURL["http://w1"].revivals; got != 1 {
		t.Fatalf("revivals = %d, want 1", got)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	cfg := Config{BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond}
	w := &workerClient{breaker: breakerClosed}

	for i := 0; i < 3; i++ {
		if !w.breakerTryAcquire(cfg) {
			t.Fatalf("closed breaker denied lease %d", i)
		}
		w.noteFailure(cfg)
	}
	if w.breaker != breakerOpen {
		t.Fatalf("after %d failures breaker is %q", cfg.BreakerThreshold, w.breaker)
	}
	if w.breakerTryAcquire(cfg) {
		t.Fatal("open breaker admitted a lease inside the cooldown")
	}

	time.Sleep(cfg.BreakerCooldown + 5*time.Millisecond)
	if !w.breakerTryAcquire(cfg) {
		t.Fatal("cooled-down breaker denied the half-open trial")
	}
	if w.breaker != breakerHalfOpen {
		t.Fatalf("breaker %q after trial admission", w.breaker)
	}
	if w.breakerTryAcquire(cfg) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	// Failed trial reopens immediately; successful trial closes.
	w.noteFailure(cfg)
	if w.breaker != breakerOpen {
		t.Fatalf("breaker %q after failed half-open trial", w.breaker)
	}
	time.Sleep(cfg.BreakerCooldown + 5*time.Millisecond)
	if !w.breakerTryAcquire(cfg) {
		t.Fatal("second half-open trial denied")
	}
	w.noteSuccess()
	if w.breaker != breakerClosed || w.consecFails != 0 {
		t.Fatalf("breaker %q consecFails %d after success", w.breaker, w.consecFails)
	}

	// Threshold <= 0 disables the breaker entirely.
	off := Config{BreakerThreshold: -1}
	d := &workerClient{breaker: breakerClosed}
	for i := 0; i < 10; i++ {
		d.noteFailure(off)
	}
	if !d.breakerTryAcquire(off) || d.breaker != breakerClosed {
		t.Fatal("disabled breaker still opened")
	}
}

func TestWorkerJoinEndpoint(t *testing.T) {
	// A server with no pool is not a coordinator.
	plain := httptest.NewServer(New(Config{}))
	defer plain.Close()
	resp, _ := postJSON(t, plain.URL+"/v1/workers", &WorkerAnnounce{URL: "http://x:1"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("non-coordinator accepted a join: %d", resp.StatusCode)
	}

	coord := New(Config{AcceptWorkers: true})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	// Relative or schemeless URLs are rejected.
	for _, bad := range []string{"", "localhost:1", "ftp://x", "/v1"} {
		resp, _ := postJSON(t, ts.URL+"/v1/workers", &WorkerAnnounce{URL: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("announce url %q accepted: %d", bad, resp.StatusCode)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/workers", &WorkerAnnounce{
		URL:  "http://127.0.0.1:9",
		Info: WorkerInfo{Worker: true, MaxConcurrent: 4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join failed: %d: %s", resp.StatusCode, body)
	}
	var ack struct {
		OK          bool  `json:"ok"`
		HeartbeatMS int64 `json:"heartbeat_interval_ms"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.OK || ack.HeartbeatMS <= 0 {
		t.Fatalf("join ack wrong: %+v", ack)
	}

	st := getStats(t, ts.URL)
	if st.WorkersJoined != 1 || len(st.Workers) != 1 {
		t.Fatalf("registry after join: joined=%d workers=%d", st.WorkersJoined, len(st.Workers))
	}
	ws := st.Workers[0]
	if ws.URL != "http://127.0.0.1:9" || !ws.Elastic || ws.State != workerAlive ||
		ws.Breaker != breakerClosed || ws.HeartbeatAgeMS < 0 {
		t.Fatalf("worker stat wrong: %+v", ws)
	}

	// The worker-side Announce helper speaks the same protocol.
	wsrv := New(Config{WorkerMode: true, MaxConcurrent: 3})
	if err := wsrv.Announce(context.Background(), ts.URL, "http://127.0.0.1:10"); err != nil {
		t.Fatalf("Announce: %v", err)
	}
	if st := getStats(t, ts.URL); st.WorkersJoined != 2 {
		t.Fatalf("Announce did not register: %+v", st)
	}
}

// flakyWorker fails its first N shard leases with 500, then serves normally
// — a worker that blips mid-job and comes back.
type flakyWorker struct {
	inner  http.Handler
	fails  int64
	shards atomic.Int64
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" {
		if n := f.shards.Add(1); n <= f.fails {
			http.Error(w, "transient crash", http.StatusInternalServerError)
			return
		}
	}
	f.inner.ServeHTTP(w, r)
}

// slowWorker delays every shard lease — it keeps the job open long enough
// for membership changes to land mid-job.
type slowWorker struct {
	inner http.Handler
	delay time.Duration
	first chan struct{}
}

func (s *slowWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" {
		if s.first != nil {
			select {
			case s.first <- struct{}{}:
			default:
			}
		}
		time.Sleep(s.delay)
	}
	s.inner.ServeHTTP(w, r)
}

// TestWorkerRevivalRejoinsMidJob is the satellite regression: a worker
// declared dead mid-job must rejoin the SAME job once a heartbeat revives
// it — death is not job-scoped exclusion. Before the registry, the dead
// worker was excluded for the rest of the job even if it recovered.
func TestWorkerRevivalRejoinsMidJob(t *testing.T) {
	slow := &slowWorker{inner: New(Config{WorkerMode: true, MaxConcurrent: 1}), delay: 25 * time.Millisecond}
	slowS := httptest.NewServer(slow)
	defer slowS.Close()
	flaky := &flakyWorker{inner: New(Config{WorkerMode: true, MaxConcurrent: 2}), fails: 1}
	flakyS := httptest.NewServer(flaky)
	defer flakyS.Close()

	coord := New(Config{
		Workers:      []string{slowS.URL, flakyS.URL},
		LeaseRetries: -1,        // fail fast: one 500 marks the worker dead
		ProbeBackoff: time.Hour, // no probe revival — only the heartbeat path
		RetryBackoff: time.Millisecond,
	})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	// The flaky worker heartbeats throughout, as a joined worker would.
	stop := make(chan struct{})
	defer close(stop)
	announceLoop(t, ts.URL, flakyS.URL, 2*time.Millisecond, stop)

	req := distributedJob(21)
	ref := singleProcessReference(t, req)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job failed: %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	sameJSONCounts(t, "revival merge", ref.Counts, jr.Counts)
	if jr.Outcomes != ref.Outcomes {
		t.Fatalf("outcomes %d, want %d", jr.Outcomes, ref.Outcomes)
	}

	// The flaky worker died (first lease 500d) and then served at least one
	// more lease of the same job after its heartbeat revival.
	if got := flaky.shards.Load(); got < 2 {
		t.Fatalf("flaky worker saw %d leases; it never rejoined the job after death", got)
	}
	st := getStats(t, ts.URL)
	if st.WorkerFailures == 0 || st.ShardsRequeued == 0 {
		t.Fatalf("the death was not recorded: %+v", st)
	}
	if st.WorkersRevived == 0 {
		t.Fatalf("no revival recorded: %+v", st)
	}
	var fs *WorkerStat
	for i := range st.Workers {
		if st.Workers[i].URL == flakyS.URL {
			fs = &st.Workers[i]
		}
	}
	if fs == nil {
		t.Fatalf("flaky worker missing from /v1/stats workers: %+v", st.Workers)
	}
	if !fs.Elastic || fs.Revivals == 0 || fs.Requeues == 0 || fs.LeasesCompleted == 0 {
		t.Fatalf("per-worker stats do not show the death/revival cycle: %+v", fs)
	}
}

// retryAfterWorker answers 503 + Retry-After for its first N shard
// requests, then serves normally — a worker that is briefly at capacity.
type retryAfterWorker struct {
	inner  http.Handler
	busyN  int64
	shards atomic.Int64
}

func (b *retryAfterWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" && b.shards.Add(1) <= b.busyN {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "briefly at capacity", http.StatusServiceUnavailable)
		return
	}
	b.inner.ServeHTTP(w, r)
}

// TestRetryAfterHonored is the satellite regression: a 503 carrying
// Retry-After must be retried after a capped wait, not exclude the worker
// from the job. Before the retry layer, the first 503 pulled the only
// worker out of the job and everything fell back to local execution.
func TestRetryAfterHonored(t *testing.T) {
	bw := &retryAfterWorker{inner: New(Config{WorkerMode: true, MaxConcurrent: 2}), busyN: 2}
	ws := httptest.NewServer(bw)
	defer ws.Close()

	coord := New(Config{
		Workers:       []string{ws.URL},
		LeaseRetries:  3,
		RetryBackoff:  time.Millisecond,
		RetryAfterCap: 10 * time.Millisecond, // the worker's hint says 1s
	})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	req := distributedJob(33)
	ref := singleProcessReference(t, req)
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job failed: %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	sameJSONCounts(t, "retry-after merge", ref.Counts, jr.Counts)

	st := getStats(t, ts.URL)
	if st.RetryAfterWaits != 2 {
		t.Fatalf("retry-after waits = %d, want 2", st.RetryAfterWaits)
	}
	// No requeue means no exclusion: every lease stayed with the worker.
	if st.ShardsRequeued != 0 {
		t.Fatalf("the 503s excluded the worker (%d requeues); Retry-After was not honored", st.ShardsRequeued)
	}
	if st.LeaseRetries < 2 {
		t.Fatalf("lease retries = %d, want >= 2", st.LeaseRetries)
	}
	// Two hints of 1s each were capped to 10ms: uncapped waits alone would
	// exceed 2s.
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("job took %v; the Retry-After hint was not capped", elapsed)
	}
}

// TestCoordinatorDrainWithLeasesInFlight: SIGTERM on a coordinator mid-job
// (BeginDrain) must let in-flight distributed work — a job and a sweep —
// run to completion with identical results while new submissions bounce
// 503 + Retry-After.
func TestCoordinatorDrainWithLeasesInFlight(t *testing.T) {
	slow := &slowWorker{
		inner: New(Config{WorkerMode: true, MaxConcurrent: 4}),
		delay: 10 * time.Millisecond,
		first: make(chan struct{}, 1),
	}
	ws := httptest.NewServer(slow)
	defer ws.Close()

	coord := New(Config{Workers: []string{ws.URL}})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	jobReq := distributedJob(55)
	jobRef := singleProcessReference(t, jobReq)
	sweepRef := func() map[int]map[string]int {
		rs := httptest.NewServer(New(Config{}))
		defer rs.Close()
		out := map[int]map[string]int{}
		for _, pj := range postSweep(t, rs.URL, sweepReq()).Results {
			out[pj.Index] = pj.Counts
		}
		return out
	}()

	type jobOut struct {
		jr  *JobResponse
		err string
	}
	jobCh := make(chan jobOut, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", jobReq)
		if resp.StatusCode != http.StatusOK {
			jobCh <- jobOut{err: string(body)}
			return
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			jobCh <- jobOut{err: err.Error()}
			return
		}
		jobCh <- jobOut{jr: &jr}
	}()
	sweepCh := make(chan *SweepResponse, 1)
	go func() {
		sweepCh <- postSweep(t, ts.URL, sweepReq())
	}()

	// Drain once the first lease is demonstrably in flight and both
	// submissions are past the drain gate: the job plans in well under a
	// millisecond, so its first lease can otherwise beat the sweep's arrival.
	select {
	case <-slow.first:
	case <-time.After(10 * time.Second):
		t.Fatal("no lease ever reached the worker")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		coord.pendMu.Lock()
		n := coord.pending
		coord.pendMu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the job and the sweep admitted after 10 s", n)
		}
	}
	coord.BeginDrain()

	// New submissions are refused with the documented 503 + Retry-After.
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", distributedJob(56))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining coordinator answered %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweeps", sweepReq())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining coordinator accepted a sweep: %d", resp.StatusCode)
	}

	// The in-flight job and sweep complete, byte-identical.
	out := <-jobCh
	if out.err != "" {
		t.Fatalf("in-flight job failed during drain: %s", out.err)
	}
	sameJSONCounts(t, "drained job", jobRef.Counts, out.jr.Counts)
	sr := <-sweepCh
	for _, pj := range sr.Results {
		sameJSONCounts(t, "drained sweep point", sweepRef[pj.Index], pj.Counts)
	}

	// DrainWait observes completion promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.DrainWait(ctx); err != nil {
		t.Fatalf("DrainWait after completion: %v", err)
	}
}

// TestWorkerDrainMidJobRequeuesElsewhere: a worker draining mid-job
// finishes the lease it already accepted, answers 503 to new leases, and
// the coordinator moves the rest of the work to the other worker — with no
// unit run twice (byte identity proves it).
func TestWorkerDrainMidJobRequeuesElsewhere(t *testing.T) {
	drainee := New(Config{WorkerMode: true, MaxConcurrent: 1})
	dw := &slowWorker{inner: drainee, delay: 15 * time.Millisecond, first: make(chan struct{}, 1)}
	ds := httptest.NewServer(dw)
	defer ds.Close()
	healthy := &countingWorker{inner: New(Config{WorkerMode: true, MaxConcurrent: 2})}
	hs := httptest.NewServer(healthy)
	defer hs.Close()

	coord := New(Config{
		Workers:       []string{ds.URL, hs.URL},
		RetryBackoff:  time.Millisecond,
		RetryAfterCap: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(coord)
	defer ts.Close()

	req := distributedJob(77)
	ref := singleProcessReference(t, req)
	done := make(chan []byte, 1)
	status := make(chan int, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
		status <- resp.StatusCode
		done <- body
	}()

	select {
	case <-dw.first:
	case <-time.After(10 * time.Second):
		t.Skip("draining worker never received a lease")
	}
	drainee.BeginDrain()

	if code := <-status; code != http.StatusOK {
		t.Fatalf("job failed after worker drain: %d: %s", code, <-done)
	}
	var jr JobResponse
	if err := json.Unmarshal(<-done, &jr); err != nil {
		t.Fatal(err)
	}
	sameJSONCounts(t, "worker-drain merge", ref.Counts, jr.Counts)
	if jr.Outcomes != ref.Outcomes {
		t.Fatalf("outcomes %d, want %d — a unit ran twice or was lost", jr.Outcomes, ref.Outcomes)
	}
	if healthy.shards.Load() == 0 {
		t.Fatal("the healthy worker never picked up the drained worker's leases")
	}

	// The drained worker refuses leases outright now.
	resp, _ := postJSON(t, ds.URL+"/v1/shard", &ShardRequest{Job: *distributedJob(1), From: 0, To: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining worker accepted a lease: %d", resp.StatusCode)
	}

	// The same contract holds for sweep leases: drain a worker mid-sweep.
	drainee2 := New(Config{WorkerMode: true, MaxConcurrent: 1})
	dw2 := &slowWorker{inner: drainee2, delay: 15 * time.Millisecond, first: make(chan struct{}, 1)}
	ds2 := httptest.NewServer(dw2)
	defer ds2.Close()
	healthy2 := httptest.NewServer(New(Config{WorkerMode: true, MaxConcurrent: 2}))
	defer healthy2.Close()
	coord2 := New(Config{
		Workers:       []string{ds2.URL, healthy2.URL},
		RetryBackoff:  time.Millisecond,
		RetryAfterCap: 5 * time.Millisecond,
	})
	ts2 := httptest.NewServer(coord2)
	defer ts2.Close()

	sweepRef := func() map[int]map[string]int {
		rs := httptest.NewServer(New(Config{}))
		defer rs.Close()
		out := map[int]map[string]int{}
		for _, pj := range postSweep(t, rs.URL, sweepReq()).Results {
			out[pj.Index] = pj.Counts
		}
		return out
	}()
	sweepCh := make(chan *SweepResponse, 1)
	go func() { sweepCh <- postSweep(t, ts2.URL, sweepReq()) }()
	select {
	case <-dw2.first:
		drainee2.BeginDrain()
	case <-time.After(10 * time.Second):
		t.Skip("draining worker never received a sweep lease")
	}
	sr := <-sweepCh
	if len(sr.Results) != len(sweepRef) {
		t.Fatalf("sweep returned %d points, want %d", len(sr.Results), len(sweepRef))
	}
	for _, pj := range sr.Results {
		sameJSONCounts(t, "worker-drain sweep point", sweepRef[pj.Index], pj.Counts)
	}
}
