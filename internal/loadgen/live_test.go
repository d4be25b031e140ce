package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tqsim/internal/serve"
)

// newLiveServer hosts a full tqsimd — result store, snapshot cache,
// admission control — on an httptest listener.
func newLiveServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{
		MaxConcurrent:      4,
		QueueDepth:         64,
		StoreEntries:       256,
		SnapshotCacheBytes: 8 << 20,
	}))
	t.Cleanup(ts.Close)
	return ts
}

func fetchStats(t *testing.T, client *http.Client, base string) serve.Stats {
	t.Helper()
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return st
}

// TestLiveRunAgainstServer is the end-to-end acceptance path: a
// full-rate open-loop run with the default mix (jobs, sweeps, streams,
// replays) against a live server, while four goroutines hammer
// /v1/stats the whole time. Run under -race by make race, this
// doubles as the stats-vs-traffic race satellite.
func TestLiveRunAgainstServer(t *testing.T) {
	ts := newLiveServer(t)

	spec := &Spec{
		Arrival:        "poisson",
		Rate:           60,
		Duration:       2 * time.Second,
		Seed:           99,
		ReplayFraction: 0.3,
		SLOp99:         2 * time.Second,
	}

	// Concurrent stats pollers for the whole run.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for g := 0; g < 4; g++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + "/v1/stats")
				if err != nil {
					continue
				}
				var st serve.Stats
				_ = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
			}
		}()
	}

	rep, err := RunWithClient(context.Background(), ts.Client(), ts.URL, spec)
	close(stop)
	pollers.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if rep.Sent < 60 {
		t.Fatalf("sent only %d requests at 60/s over 2s", rep.Sent)
	}
	if rep.Completed == 0 {
		t.Fatalf("no requests completed: %+v", rep)
	}
	if rep.TransportErrors > 0 {
		t.Fatalf("%d transport errors against local server", rep.TransportErrors)
	}
	if rep.StreamErrors > 0 {
		t.Fatalf("%d stream errors", rep.StreamErrors)
	}
	if rep.Replays == 0 {
		t.Fatal("replay fraction 0.3 produced no replay requests")
	}
	if rep.P50 <= 0 || rep.P99 < rep.P95 || rep.P95 < rep.P50 {
		t.Fatalf("quantiles inconsistent: p50 %v p95 %v p99 %v", rep.P50, rep.P95, rep.P99)
	}
	if rep.Throughput <= 0 || rep.Goodput > rep.Throughput {
		t.Fatalf("throughput %f goodput %f inconsistent", rep.Throughput, rep.Goodput)
	}

	// Server-side cross-check: the server's own latency histogram saw
	// every 2xx completion the client counted (modulo in-flight races —
	// the run has fully drained here, so counts must line up).
	st := fetchStats(t, ts.Client(), ts.URL)
	if st.LatencyCount == 0 {
		t.Fatal("server recorded no latency samples")
	}
	if int(st.LatencyCount) != rep.Status["2xx"] {
		t.Fatalf("server latency_count %d != client 2xx count %d", st.LatencyCount, rep.Status["2xx"])
	}
	if st.LatencyP50MS <= 0 || st.LatencyP99MS < st.LatencyP50MS {
		t.Fatalf("server quantiles inconsistent: p50 %.3f p99 %.3f", st.LatencyP50MS, st.LatencyP99MS)
	}
	// The server measures handler time, a subset of the client's
	// request round trip; its median cannot exceed the client's by more
	// than the histogram's bucketing error.
	slack := 1 + 2*0.0906
	if st.LatencyP50MS > rep.P50MS*slack+1 {
		t.Fatalf("server p50 %.3fms above client p50 %.3fms", st.LatencyP50MS, rep.P50MS)
	}
}

// TestLiveClosedLoop drives the same server with K closed-loop clients
// and think time, bounded by MaxRequests.
func TestLiveClosedLoop(t *testing.T) {
	ts := newLiveServer(t)
	spec := &Spec{
		Arrival:     "closed",
		Clients:     3,
		Think:       5 * time.Millisecond,
		Duration:    5 * time.Second,
		MaxRequests: 60,
		Seed:        7,
	}
	rep, err := RunWithClient(context.Background(), ts.Client(), ts.URL, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 60 {
		t.Fatalf("sent %d, want exactly MaxRequests=60", rep.Sent)
	}
	if rep.Completed != 60 {
		t.Fatalf("completed %d of 60 at trivial load: %+v", rep.Completed, rep)
	}
	if rep.Offered <= 0 {
		t.Fatal("closed loop reported no achieved rate")
	}
}

// TestLiveAdmissionBreakdown saturates a one-slot, shallow-queue server
// and checks rejections land in the status breakdown rather than the
// latency histogram.
func TestLiveAdmissionBreakdown(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{MaxConcurrent: 1, QueueDepth: 1}))
	t.Cleanup(ts.Close)
	spec := &Spec{
		Arrival:  "fixed",
		Rate:     400,
		Duration: 1 * time.Second,
		Seed:     3,
		Mix: []MixEntry{{
			Weight: 1, Kind: "job", Circuit: "bv_n10", Noise: "DC", Shots: 500,
		}},
	}
	rep, err := RunWithClient(context.Background(), ts.Client(), ts.URL, spec)
	if err != nil {
		t.Fatal(err)
	}
	rejected := rep.Status["429"] + rep.Status["503"]
	if rejected == 0 {
		t.Fatalf("one-slot server absorbed 400/s without rejections: %+v", rep.Status)
	}
	if int(rep.Hist.Count()) != rep.Completed {
		t.Fatalf("histogram holds %d samples but %d completed — rejections leaked in", rep.Hist.Count(), rep.Completed)
	}
}
