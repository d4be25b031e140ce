package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tqsim"
	"tqsim/internal/loadgen"
	"tqsim/internal/rng"
	"tqsim/internal/serve"
)

// request is one generated request. key is the replay population key the
// body was drawn from, or -1 for a body with a fresh seed.
type request struct {
	path string
	body []byte
	key  int
}

// source makes request i of a phase. It is a pure function of (seed, phase,
// i): any goroutine asking for the same request gets the same bytes, and no
// two phases share a request, so a phase's inputs do not depend on how many
// requests an earlier, time-limited phase got through.
type source interface {
	at(phase uint64, i int) (request, error)
}

// freshSource draws loadgen.DefaultMix bodies, every one with a seed of its
// own: no request can be answered from the result store.
type freshSource struct{ seed uint64 }

func (s freshSource) at(phase uint64, i int) (request, error) {
	spec := loadgen.Spec{Rate: 1, Duration: time.Second, Seed: rng.SeedAt(s.seed, phase)}
	r, err := spec.RequestAt(i)
	if err != nil {
		return request{}, err
	}
	return request{path: r.Path, body: r.Body, key: -1}, nil
}

// The replay population: replayKeys bodies, twice the server's result-store
// capacity, so the store reads, writes and evicts in the same run.
const (
	replayKeys     = 2 * serveStoreEntries
	replayShare    = 0.9
	replayZipfS    = 1.1
	replayShots    = 200
	replayRankStep = 389 // odd, so rank -> key is a bijection on a power of two
)

var replayCircuits = []string{"bv_n10", "qft_n8", "bv_n8", "qpe_n9_0"}

// replaySource draws replayShare of its requests Zipf(replayZipfS) from the
// key population and the rest with fresh seeds. Key k simulates
// replayCircuits[k%4] at seed rng.SeedAt(seed, k); keys with (k/4)%4 == 0
// carry the circuit as inline OpenQASM instead of naming it, so the two
// request-to-circuit paths are both on the replay path.
type replaySource struct {
	seed   uint64
	bodies [][]byte  // by key
	cdf    []float64 // by popularity rank
}

func replayIsQASM(key int) bool { return (key/4)%4 == 0 }

func newReplaySource(seed uint64) (*replaySource, error) {
	qasm := make([]string, len(replayCircuits))
	for i, name := range replayCircuits {
		c := tqsim.BenchmarkByName(name)
		if c == nil {
			return nil, fmt.Errorf("no suite circuit %q", name)
		}
		src, err := tqsim.SerializeQASM(c)
		if err != nil {
			return nil, err
		}
		qasm[i] = src
	}
	s := &replaySource{seed: seed, bodies: make([][]byte, replayKeys), cdf: make([]float64, replayKeys)}
	for k := range s.bodies {
		body, err := replayBody(k%len(replayCircuits), rng.SeedAt(seed, uint64(k)), replayIsQASM(k), qasm)
		if err != nil {
			return nil, err
		}
		s.bodies[k] = body
	}
	total := 0.0
	for r := range s.cdf {
		total += math.Pow(float64(r+1), -replayZipfS)
		s.cdf[r] = total
	}
	for r := range s.cdf {
		s.cdf[r] /= total
	}
	return s, nil
}

func replayBody(circuit int, simSeed uint64, inline bool, qasm []string) ([]byte, error) {
	req := serve.JobRequest{Circuit: replayCircuits[circuit], Noise: "DC", Shots: replayShots, Seed: simSeed}
	if inline {
		req.Circuit, req.QASM = "", qasm[circuit]
	}
	return json.Marshal(&req)
}

// keyOfRank scatters popularity ranks over the key space, so the popular
// keys are not all of one circuit or one class.
func keyOfRank(rank int) int { return rank * replayRankStep % replayKeys }

func (s *replaySource) at(phase uint64, i int) (request, error) {
	r := rng.New(rng.SeedAt(rng.SeedAt(s.seed, phase), uint64(i)))
	if r.Float64() < replayShare {
		key := keyOfRank(sort.SearchFloat64s(s.cdf, r.Float64()))
		return request{path: "/v1/jobs", body: s.bodies[key], key: key}, nil
	}
	body, err := replayBody(i%len(replayCircuits), r.Uint64(), false, nil)
	return request{path: "/v1/jobs", body: body, key: -1}, err
}

// outcome is what the generator saw of one request.
type outcome struct {
	status int // 0 = transport error or dropped
	body   []byte
	// lateMS is how long after its due instant the request had a
	// connection and was written; latencyMS runs from the due instant to
	// the last response byte.
	lateMS, latencyMS float64
}

func (o outcome) ok() bool { return o.status >= 200 && o.status < 300 }

// generator drives one server. Latencies are kept as exact samples.
type generator struct {
	client *http.Client
	url    string
	seed   uint64
	src    source
	tr     *tracer
	// keepBodies keeps response bodies for the output checks.
	keepBodies bool
}

// maxConns caps the keep-alive pool: an arrival that finds all connections
// busy waits for one, and that wait is part of its latency.
const maxConns = 16

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConns:        maxConns,
			MaxIdleConnsPerHost: maxConns,
		},
	}
}

// do sends one request and reads the whole response. due is the instant the
// request should have been sent; a closed-loop client passes time.Now().
func (g *generator) do(rq request, due time.Time, trace int64) outcome {
	sp := g.tr.beginAt("client.request", 0, trace, due)
	defer sp.end()
	var gotConn time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return outcome{}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if sp != nil {
		hreq.Header.Set(spanHeader, strconv.FormatInt(sp.id(), 10)+"/"+strconv.FormatInt(trace, 10))
	}
	resp, err := g.client.Do(hreq)
	if err != nil {
		return outcome{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return outcome{}
	}
	out := outcome{status: resp.StatusCode, latencyMS: done.Sub(due).Seconds() * 1e3}
	if !gotConn.IsZero() {
		out.lateMS = gotConn.Sub(due).Seconds() * 1e3
		g.tr.beginAt("gen.due_to_send", sp.id(), trace, due).endAt(gotConn)
	}
	// A streamed job answers 200 and reports a failure in its last line.
	if bytes.Contains(body, []byte(`"type":"error"`)) {
		out.status = http.StatusInternalServerError
	}
	if g.keepBodies {
		out.body = body
	}
	return out
}

// closedLoop runs clients request loops without think time until d has
// passed or limit requests were started (0 = no limit), and returns the
// outcomes in request order and the wall time from the first send to the
// last response.
func (g *generator) closedLoop(phase uint64, clients int, d time.Duration, limit int) ([]outcome, time.Duration, error) {
	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				rq, err := g.src.at(phase, i)
				var o outcome
				if err == nil {
					o = g.do(rq, time.Now(), int64(phase)<<32|int64(i))
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for len(outs) <= i {
					outs = append(outs, outcome{})
				}
				outs[i] = o
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start), firstErr
}

// openLoop sends the phase's requests on a Poisson schedule from one pacing
// goroutine, whatever the server does: a stall delays nothing but the
// responses, and every latency is timed from the due instant.
func (g *generator) openLoop(phase uint64, rate float64, d time.Duration) ([]outcome, error) {
	spec := loadgen.Spec{Arrival: "poisson", Rate: rate, Duration: d, Seed: rng.SeedAt(g.seed, phase)}
	sched, err := spec.Schedule()
	if err != nil {
		return nil, err
	}
	reqs := make([]request, len(sched))
	for i := range reqs {
		if reqs[i], err = g.src.at(phase, i); err != nil {
			return nil, err
		}
	}
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = g.do(reqs[i], due, int64(phase)<<32|int64(i))
		}()
	}
	wg.Wait()
	return outs, nil
}

// spanHeader carries "<client span id>/<trace id>" to the timing handler,
// so the server-side span joins the request's trace.
const spanHeader = "X-Bench-Span"
