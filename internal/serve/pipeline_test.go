package serve

// Tests for the one request pipeline: the /v1/stats counter algebra across
// every path a submission can take, the request-body bound at the single
// decode site, and the sweep point cap enforced before planning.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tqsim"
)

// TestPipelineAccounting sends one fixed request set — two good requests, a
// 400, a 413, a 429, a client that disconnects while queued, and a
// submission during drain — down every path of the pipeline, {job, sweep} ×
// {JSON, NDJSON} × {live, store replay, coordinator + 2 workers, worker
// lease}, and checks the counter algebra /v1/stats consumers rely on:
// every request books exactly one outcome, latency is recorded exactly for
// completed requests, every store lookup is a hit or a miss, and units are
// counted where they are recorded.
func TestPipelineAccounting(t *testing.T) {
	const unitsPerRequest = 4
	for _, kind := range []string{"job", "sweep"} {
		for _, stream := range []bool{false, true} {
			for _, mode := range []string{"live", "replay", "coordinator", "lease"} {
				if mode == "lease" && stream {
					continue // a lease has one response shape
				}
				t.Run(fmt.Sprintf("%s/stream=%v/%s", kind, stream, mode), func(t *testing.T) {
					cfg := Config{MaxConcurrent: 1, QueueDepth: 1, MaxShots: 1000}
					path := "/v1/" + kind + "s"
					switch mode {
					case "replay":
						cfg.StoreEntries = 16
					case "coordinator":
						for i := 0; i < 2; i++ {
							ws := httptest.NewServer(New(Config{WorkerMode: true}))
							defer ws.Close()
							cfg.Workers = append(cfg.Workers, ws.URL)
						}
					case "lease":
						// The store is on to prove a lease never consults it.
						cfg.WorkerMode, cfg.StoreEntries, path = true, 16, "/v1/shard"
					}
					srv := New(cfg)
					ts := httptest.NewServer(srv)
					defer ts.Close()

					// body builds the cell's request: the good one at a seed, or
					// a variant that must be refused.
					body := func(circuit string, shots int, seed uint64) any {
						var req any
						job := JobRequest{Circuit: circuit, Noise: "DC", Shots: shots, Seed: seed,
							BatchShots: shots / unitsPerRequest, Stream: stream}
						sweep := &SweepRequest{Spec: tqsim.SweepSpec{Circuit: circuit,
							Shots: []int{shots / 2, shots}, Repeats: 2, Seed: seed}, Stream: &stream}
						switch {
						case mode == "lease" && kind == "job":
							req = &ShardRequest{Job: job, From: 1, To: 3}
						case mode == "lease":
							req = &ShardRequest{Sweep: sweep, From: 1, To: 3}
						case kind == "job":
							req = &job
						default:
							req = sweep
						}
						return req
					}
					sent := 0
					post := func(what string, req any, want int) {
						t.Helper()
						sent++
						if resp, b := postJSON(t, ts.URL+path, req); resp.StatusCode != want {
							t.Fatalf("%s: status %d, want %d: %.200s", what, resp.StatusCode, want, b)
						}
					}
					setPending := func(n int) {
						srv.pendMu.Lock()
						srv.pending = n
						srv.pendMu.Unlock()
					}
					waitFor := func(what string, cond func() bool) {
						t.Helper()
						for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
							if time.Now().After(deadline) {
								t.Fatalf("timed out waiting for %s", what)
							}
						}
					}

					completed, units, lookups := 0, 0, 0
					for seed := uint64(1); seed <= 2; seed++ {
						post("good request", body("qft_n8", 200, seed), http.StatusOK)
						completed++
						switch mode {
						case "lease":
							units += 2
						case "replay":
							post("replayed request", body("qft_n8", 200, seed), http.StatusOK)
							completed++
							lookups += 2
							fallthrough
						default:
							units += unitsPerRequest
						}
					}
					post("unknown circuit", body("no_such_circuit", 200, 1), http.StatusBadRequest)
					post("shots over the limit", body("qft_n8", 4000, 1), http.StatusRequestEntityTooLarge)

					// 429 (503 for a lease): every slot and the whole queue taken.
					setPending(cfg.MaxConcurrent + cfg.QueueDepth)
					full := http.StatusTooManyRequests
					if mode == "lease" {
						full = http.StatusServiceUnavailable
					}
					post("queue full", body("qft_n8", 200, 3), full)
					setPending(0)

					// A client that disconnects while queued behind the only slot.
					if err := srv.acquire(context.Background()); err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := json.NewEncoder(&buf).Encode(body("qft_n8", 200, 4)); err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithCancel(context.Background())
					hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, &buf)
					if err != nil {
						t.Fatal(err)
					}
					gone := make(chan struct{})
					go func() {
						defer close(gone)
						if resp, err := http.DefaultClient.Do(hreq); err == nil {
							resp.Body.Close()
						}
					}()
					sent++
					waitFor("the request to queue", func() bool {
						srv.pendMu.Lock()
						defer srv.pendMu.Unlock()
						return srv.pending == 2
					})
					cancel()
					<-gone
					waitFor("the cancel to be booked", func() bool { return srv.Snapshot().JobsCanceled == 1 })
					srv.release()
					if mode == "replay" {
						lookups += 2 // the 429 and the cancel both missed before queueing
					}

					srv.BeginDrain()
					post("draining", body("qft_n8", 200, 5), http.StatusServiceUnavailable)

					st := srv.Snapshot()
					done := int(st.JobsCompleted + st.SweepsCompleted)
					if done != completed {
						t.Errorf("completed %d, want %d", done, completed)
					}
					if st.JobsFailed != 2 || st.JobsCanceled != 1 || st.RejectedQueueFull != 1 || st.RejectedDraining != 1 || st.RejectedMemory != 0 {
						t.Errorf("failed/canceled/queue-full/draining/memory = %d/%d/%d/%d/%d, want 2/1/1/1/0",
							st.JobsFailed, st.JobsCanceled, st.RejectedQueueFull, st.RejectedDraining, st.RejectedMemory)
					}
					if booked := done + int(st.JobsFailed+st.JobsCanceled+st.RejectedQueueFull+st.RejectedDraining+st.RejectedMemory); booked != sent {
						t.Errorf("%d outcomes booked for %d requests sent", booked, sent)
					}
					if int(st.LatencyCount) != done {
						t.Errorf("latency_count %d, want completed %d", st.LatencyCount, done)
					}
					if got := int(st.ResultsHits + st.ResultsMisses); got != lookups {
						t.Errorf("results hits+misses %d, want %d store lookups", got, lookups)
					}
					if mode == "replay" && st.ResultsHits != 2 {
						t.Errorf("results_hits %d, want 2", st.ResultsHits)
					}
					ran, other := st.BatchesRun, st.SweepPointsRun
					if kind == "sweep" {
						ran, other = other, ran
					}
					if int(ran) != units || other != 0 {
						t.Errorf("%s units run %d (other kind %d), want %d (0)", kind, ran, other, units)
					}
				})
			}
		}
	}
}

// TestRequestBodyBound: every endpoint that decodes a body refuses one over
// maxBodyBytes with 413 — whether the client declared the length or not —
// and books it exactly once.
func TestRequestBodyBound(t *testing.T) {
	srv := New(Config{WorkerMode: true, AcceptWorkers: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A JSON string that never closes: the decoder has to keep reading.
	huge := append([]byte(`{"qasm":"`), bytes.Repeat([]byte("a"), maxBodyBytes)...)
	failed := uint64(0)
	for _, path := range []string{"/v1/jobs", "/v1/plan", "/v1/sweeps", "/v1/shard", "/v1/workers"} {
		for _, declared := range []bool{true, false} {
			var body io.Reader = bytes.NewReader(huge)
			if !declared {
				body = struct{ io.Reader }{body} // hides Len: sent chunked, length unknown
			}
			resp, err := http.Post(ts.URL+path, "application/json", body)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s (declared=%v): status %d, want 413", path, declared, resp.StatusCode)
			}
			failed++
			if st := srv.Snapshot(); st.JobsFailed != failed {
				t.Fatalf("%s (declared=%v): jobs_failed %d, want %d", path, declared, st.JobsFailed, failed)
			}
		}
	}
	// A body at the limit is still read: it fails as JSON, not as too large.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(huge[:maxBodyBytes]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body at the limit: status %d, want 400", resp.StatusCode)
	}
}

// TestHostileSweepPartitions: a partition axis whose leaf count overflows
// int is a 400, answered without looping (XCP over 60 levels makes
// 2^(k(k-1)/2) +Inf), and one whose points sample more than MaxShots is a
// 413, though every entry of the shots axis is within it.
func TestHostileSweepPartitions(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxShots: 1000}))
	defer ts.Close()
	for _, tc := range []struct {
		part   tqsim.SweepPartition
		status int
	}{
		{tqsim.SweepPartition{Strategy: "xcp", Levels: 60}, http.StatusBadRequest},
		{tqsim.SweepPartition{Strategy: "structure", Structure: []int{65536, 65536, 65536, 65536}}, http.StatusBadRequest},
		{tqsim.SweepPartition{Strategy: "structure", Structure: []int{40, 30}}, http.StatusRequestEntityTooLarge},
		{tqsim.SweepPartition{Strategy: "structure", Structure: []int{40, 25}}, http.StatusOK},
	} {
		stream := false
		spec := tqsim.SweepSpec{Circuit: "qft_n8", Shots: []int{100}, Partitions: []tqsim.SweepPartition{tc.part}}
		resp, body := postJSON(t, ts.URL+"/v1/sweeps", &SweepRequest{Spec: spec, Stream: &stream})
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.part.Label(), resp.StatusCode, tc.status, body)
		}
	}
}

// TestSweepPointCapBeforePlanning: Config.MaxSweepPoints promises a 413
// before any planning work. The grid below is over the cap AND names an
// unknown circuit — an error only resolving the circuit can produce — so a
// 400 means the server planned first.
func TestSweepPointCapBeforePlanning(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxSweepPoints: 8}))
	defer ts.Close()
	for name, spec := range map[string]tqsim.SweepSpec{
		"over-cap":        {Circuit: "no_such_circuit", Shots: []int{100, 200, 300}, Repeats: 3},
		"overflowing":     {Circuit: "no_such_circuit", Shots: []int{100, 200, 300}, Repeats: 1 << 62},
		"over-engine-cap": {Circuit: "no_such_circuit", Shots: []int{100}, Repeats: 1 << 20},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/sweeps", &SweepRequest{Spec: spec})
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "server limit 8") {
			t.Errorf("%s: status %d, want 413 naming the limit: %s", name, resp.StatusCode, body)
		}
	}
	// At the cap the grid is planned, and the unknown circuit surfaces.
	resp, body := postJSON(t, ts.URL+"/v1/sweeps",
		&SweepRequest{Spec: tqsim.SweepSpec{Circuit: "no_such_circuit", Shots: []int{100, 200}, Repeats: 4}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("grid at the cap: status %d, want 400: %s", resp.StatusCode, body)
	}
}
