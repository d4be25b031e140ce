package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tqsim/internal/rng"
	"tqsim/internal/serve"
)

// serveStoreEntries caps the server's result store. tqsimd's default is
// 512; the benchmark halves it, and the replay population with it, so that
// the warm-up which fills the store fits a set-up that is repeated in every
// run. What the workload depends on — a population twice the store — holds.
const serveStoreEntries = 256

// latencyLimitMS is the limit an open-loop request must meet, counted from
// the instant it was due.
const latencyLimitMS = 100

// serveInput describes a serve workload: an in-process tqsimd
// (serve.New behind httptest.NewServer, memory-only store and snapshot
// cache as tqsimd configures them) driven first by a closed loop of
// GOMAXPROCS clients, then by an open Poisson loop at a fixed rate. The
// reference path is the same requests against a server without a result
// store.
type serveInput struct {
	replay bool
	// warmup requests are sent inside every set-up.
	warmup int
	rate   float64
}

var (
	serveFresh  = serveInput{warmup: 100, rate: 60}
	serveReplay = serveInput{replay: true, warmup: 700, rate: 80}
)

// Phases of a serve run; each draws its own requests from the source.
const (
	phaseWarmup = 1
	phaseOpen   = 2
	phaseCheck  = 3
	phaseProbe  = 4  // bodies of the handler probes
	phaseClosed = 10 // + segment
)

const (
	serveSetups    = 2
	closedSegments = 6
	sampledBodies  = 32
)

// timedHandler wraps the server in traced runs: it times every request on
// the server side, counts response bytes and records the serve.handler span
// under the client span named in the request header.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	on   atomic.Bool

	mu      sync.Mutex
	samples []handlerSample
}

type handlerSample struct {
	trace int64
	ms    float64
	bytes int
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// Flush keeps NDJSON streaming working through the wrapper.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	var parent, trace int64
	if p, t, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
		parent, _ = strconv.ParseInt(p, 10, 64)
		trace, _ = strconv.ParseInt(t, 10, 64)
	}
	t0 := time.Now()
	sp := h.tr.beginAt("serve.handler", parent, trace, t0)
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	sp.end()
	h.mu.Lock()
	h.samples = append(h.samples, handlerSample{trace, time.Since(t0).Seconds() * 1e3, cw.n})
	h.mu.Unlock()
}

// serveEnv is one set-up: the server under test, the reference server and a
// generator for each.
type serveEnv struct {
	srv       *serve.Server
	timed     *timedHandler
	main, ref *generator
	close     func()
}

func (in serveInput) setup(cfg runCfg, clients int) (*serveEnv, error) {
	var src source = freshSource{cfg.seed}
	if in.replay {
		rs, err := newReplaySource(cfg.seed)
		if err != nil {
			return nil, err
		}
		src = rs
	}
	e := &serveEnv{srv: serve.New(serve.Config{StoreEntries: serveStoreEntries, SnapshotCacheBytes: 256 << 20})}
	var handler http.Handler = e.srv
	if cfg.tr != nil {
		e.timed = &timedHandler{next: e.srv, tr: cfg.tr}
		handler = e.timed
	}
	ts := httptest.NewServer(handler)
	refTS := httptest.NewServer(serve.New(serve.Config{SnapshotCacheBytes: 256 << 20}))
	mainClient, refClient := newClient(), newClient()
	e.main = &generator{client: mainClient, url: ts.URL, seed: cfg.seed, src: src}
	e.ref = &generator{client: refClient, url: refTS.URL, seed: cfg.seed, src: src}
	e.close = func() {
		mainClient.CloseIdleConnections()
		refClient.CloseIdleConnections()
		ts.Close()
		refTS.Close()
	}
	warm := cfg.scaled(in.warmup, 8)
	for _, g := range []*generator{e.main, e.ref} {
		outs, _, err := g.closedLoop(phaseWarmup, clients, time.Hour, warm)
		if err != nil {
			e.close()
			return nil, err
		}
		for i, o := range outs {
			if !o.ok() {
				e.close()
				return nil, fmt.Errorf("warm-up request %d answered %d", i, o.status)
			}
		}
		// The reference server has no store to fill.
		warm = min(warm, cfg.scaled(100, 8))
	}
	return e, nil
}

// trace switches the spans and the server-side timing on or off.
func (e *serveEnv) trace(tr *tracer) {
	e.main.tr = tr
	if e.timed != nil {
		e.timed.on.Store(tr != nil)
	}
}

func runServe(in serveInput, cfg runCfg) (*result, error) {
	res := newResult()
	clients := runtime.GOMAXPROCS(0)
	var setupS []float64
	var env *serveEnv
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.close()
		}
		var err error
		setupS = append(setupS, timed(func() { env, err = in.setup(cfg, clients) }).Seconds())
		if err != nil {
			return nil, err
		}
	}
	defer env.close()

	mem := markMem()
	before := env.srv.Snapshot()
	env.main.keepBodies, env.ref.keepBodies = true, true
	segment := cfg.duration(0.6 / (2 * closedSegments))
	var mainRate, refRate []float64
	var traceCost overhead
	var agreeing, compared int
	for seg := 0; seg < closedSegments; seg++ {
		traced := cfg.tr != nil && seg%2 == 1
		if traced {
			env.trace(cfg.tr)
		}
		runtime.GC()
		mainOuts, wall, err := env.main.closedLoop(phaseClosed+uint64(seg), clients, segment, 0)
		env.trace(nil)
		if err != nil {
			return nil, err
		}
		mainRate = append(mainRate, float64(countOK(res, mainOuts, "closed loop"))/wall.Seconds())
		traceCost.add(traced, wall.Seconds()*1e3/float64(max(len(mainOuts), 1)))
		runtime.GC()
		refOuts, wall, err := env.ref.closedLoop(phaseClosed+uint64(seg), clients, segment, 0)
		if err != nil {
			return nil, err
		}
		refRate = append(refRate, float64(countOK(res, refOuts, "reference closed loop"))/wall.Seconds())
		if seg == 0 {
			// The same phase gives both servers the same bodies, so their
			// histograms must agree request by request.
			a, c, err := compareServers(env.main.src, phaseClosed, mainOuts, refOuts, res)
			if err != nil {
				return nil, err
			}
			agreeing, compared = a, c
			env.main.keepBodies, env.ref.keepBodies = false, false
		}
	}

	env.trace(cfg.tr)
	runtime.GC()
	t0 := time.Now()
	open, err := env.main.openLoop(phaseOpen, in.rate, cfg.duration(0.4))
	openWall := time.Since(t0)
	env.trace(nil)
	if err != nil {
		return nil, err
	}
	countOK(res, open, "open loop")
	var latency, late []float64
	inLimit, dropped := 0, 0
	for _, o := range open {
		late = append(late, o.lateMS)
		switch {
		case o.status == 0:
			dropped++
		case o.ok():
			latency = append(latency, o.latencyMS)
			if o.latencyMS <= latencyLimitMS {
				inLimit++
			}
		}
	}
	sort.Float64s(latency)
	sort.Float64s(late)
	after := env.srv.Snapshot()

	hits, misses := after.ResultsHits-before.ResultsHits, after.ResultsMisses-before.ResultsMisses
	hitRatio := ratio(hits, hits+misses)
	if !in.replay {
		res.check(hits == 0, len(open), "%d store hits on bodies that are all fresh", hits)
	}

	a, c, err := replayIdentity(env, res)
	if err != nil {
		return nil, err
	}
	agreeing, compared = agreeing+a, compared+c

	res.e2e["setup_s"] = fastTime(setupS)
	res.e2e["ops_per_s"] = fastRate(mainRate)
	res.e2e["ref_ops_per_s"] = fastRate(refRate)
	res.e2e["agreement"] = constantN(ratio(uint64(agreeing), uint64(compared)), compared)
	res.e2e["latency_ms"] = summarize(latency)
	res.e2e["in_limit_share"] = constantN(ratio(uint64(inLimit), uint64(len(open))), len(open))

	if cfg.tr == nil {
		return res, nil
	}
	res.layer = mem.since(res.attempted)
	res.layer["serve.store_hit_ratio"] = hitRatio
	res.layer["serve.plan_cache_hit_ratio"] = ratio(after.PlanCacheHits-before.PlanCacheHits,
		after.PlanCacheHits-before.PlanCacheHits+after.PlanCacheMisses-before.PlanCacheMisses)
	res.layer["serve.snapshot_hit_ratio"] = ratio(after.SnapshotHits-before.SnapshotHits,
		after.SnapshotHits-before.SnapshotHits+after.SnapshotMisses-before.SnapshotMisses)
	res.layer["serve.rejected_429"] = float64(after.RejectedQueueFull - before.RejectedQueueFull)
	var serverMS []float64
	busyMS, respBytes := 0.0, 0
	for _, s := range env.timed.samples {
		if s.trace>>32 == phaseOpen {
			serverMS = append(serverMS, s.ms)
			busyMS += s.ms
			respBytes += s.bytes
		}
	}
	res.layer["serve.server_p50_ms"] = median(serverMS)
	res.layer["serve.client_minus_server_p50_ms"] = quantile(latency, 0.5) - median(serverMS)
	res.layer["serve.handler_busy_share"] = busyMS / (openWall.Seconds() * 1e3 * float64(clients))
	res.layer["serve.response_bytes_mean"] = float64(respBytes) / float64(max(len(serverMS), 1))
	res.layer["gen.late_p99_ms"] = quantile(late, 0.99)
	res.layer["gen.offered_rps"] = float64(len(open)) / cfg.duration(0.4).Seconds()
	res.layer["gen.dropped"] = float64(dropped)
	res.layer["loadgen.p95_ms"] = tailQuantile(latency, 0.95)
	res.layer["loadgen.p99_ms"] = tailQuantile(latency, 0.99)
	res.layer["trace.overhead_ratio"] = traceCost.ratio()
	return res, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// countOK books a phase's requests as attempted and every one that was not
// answered 2xx as failed, and returns the number answered 2xx.
func countOK(res *result, outs []outcome, what string) int {
	ok := 0
	for _, o := range outs {
		if o.ok() {
			ok++
		}
	}
	res.attempted += len(outs)
	res.check(ok == len(outs), len(outs)-ok, "%s: %d of %d requests not answered 2xx", what, len(outs)-ok, len(outs))
	return ok
}

// compareServers checks the first sampledBodies plain job responses of one
// closed-loop phase on both servers: the histogram must hold the outcomes
// it claims, at least the shots asked for, and be equal on the server with
// the store and the one without. It returns how many pairs agreed of how
// many it compared.
func compareServers(src source, phase uint64, mainOuts, refOuts []outcome, res *result) (agreeing, compared int, err error) {
	for i := 0; i < min(len(mainOuts), len(refOuts)) && compared < sampledBodies; i++ {
		rq, err := src.at(phase, i)
		if err != nil {
			return 0, 0, err
		}
		var req serve.JobRequest
		if rq.path != "/v1/jobs" || json.Unmarshal(rq.body, &req) != nil || req.Stream {
			continue
		}
		var got, want serve.JobResponse
		if json.Unmarshal(mainOuts[i].body, &got) != nil || json.Unmarshal(refOuts[i].body, &want) != nil {
			continue // not answered 2xx; countOK has booked it
		}
		compared++
		total := 0
		for _, v := range got.Counts {
			total += v
		}
		res.check(total == got.Outcomes && got.Outcomes >= req.Shots, 1,
			"request %d: histogram holds %d outcomes, response says %d for %d shots", i, total, got.Outcomes, req.Shots)
		same := reflect.DeepEqual(got.Counts, want.Counts)
		res.check(same, 1, "request %d: histogram differs between the server with a store and the one without", i)
		if same {
			agreeing++
		}
	}
	return agreeing, compared, nil
}

// replayIdentity sends sampledBodies bodies the server has not seen, each
// twice: the first answer is simulated, the second must be the stored bytes
// of the first.
func replayIdentity(env *serveEnv, res *result) (agreeing, compared int, err error) {
	env.main.keepBodies = true
	defer func() { env.main.keepBodies = false }()
	before := env.srv.Snapshot().ResultsHits
	for i := 0; i < sampledBodies; i++ {
		body, err := replayBody(i%len(replayCircuits), rng.SeedAt(rng.SeedAt(env.main.seed, phaseCheck), uint64(i)), false, nil)
		if err != nil {
			return 0, 0, err
		}
		rq := request{path: "/v1/jobs", body: body, key: -1}
		first := env.main.do(rq, time.Now(), 0)
		second := env.main.do(rq, time.Now(), 0)
		res.attempted += 2
		compared++
		same := first.ok() && second.ok() && bytes.Equal(first.body, second.body)
		res.check(same, 2, "check body %d: the replayed response is not the first response byte for byte", i)
		if same {
			agreeing++
		}
	}
	hits := env.srv.Snapshot().ResultsHits - before
	res.check(hits == sampledBodies, sampledBodies, "%d of %d repeated bodies were answered from the store", hits, sampledBodies)
	return agreeing, compared, nil
}
