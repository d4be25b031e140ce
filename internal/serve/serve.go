// Package serve implements the tqsimd HTTP/JSON service: a long-running
// entry point that accepts OpenQASM (or benchmark-suite) simulation jobs,
// admission-controls them with the planner's cost/memory estimates, batches
// shots through a bounded scheduler, caches simulation plans keyed by
// (circuit hash, noise, options) in a bounded LRU, and streams per-batch
// histograms as NDJSON. POST /v1/sweeps serves whole parameter/noise grids
// through the internal/sweep engine (plan and ideal-spine reuse across
// points), streaming one NDJSON line per point. Jobs, sweeps and shard
// leases all run through one request pipeline (pipeline.go). cmd/tqsimd is
// a thin main around New.
//
// With Config.StoreEntries or Config.StoreDir set, finished jobs and sweeps
// are recorded in a content-addressed result store (internal/resultstore)
// and repeated requests replay byte-identically without simulating; with
// Config.SnapshotCacheBytes set, every batch and sweep point whose run
// reuses quiet segments takes its ideal spine from one daemon-wide
// core.SnapshotCache, so circuits sharing gate prefixes share spine states.
//
// The same Server type implements both distributed roles (see protocol.go
// for the wire contract): a worker (Config.WorkerMode) additionally serves
// POST /v1/shard leases, and a coordinator (Config.Workers) shards
// multi-batch jobs — and multi-point sweeps — across its worker pool,
// health-checks the workers, bounds every lease round trip by
// Config.LeaseTimeout, and re-dispatches a failed or hung worker's unacked
// leases — falling back to local execution when no worker can take the
// work.
//
// Determinism contract: a job that fits in one batch returns a histogram
// byte-identical to tqsim.RunTQSim (mode "tqsim") or tqsim.RunBackend
// (mode "baseline") at the same seed and options. A job split into B
// batches runs batch i at the derived seed BatchSeed(seed, i) (batch 0
// keeps the job seed) and returns the merged histogram — equal to merging
// B single-process runs at those seeds, regardless of how many jobs the
// server is executing concurrently, and — because batch i's histogram is a
// pure function of the job request and i — regardless of how many workers
// the batches were sharded over or how failed leases were re-dispatched.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tqsim"
	"tqsim/internal/hpcmodel"
	"tqsim/internal/lru"
	"tqsim/internal/metrics"
	"tqsim/internal/planner"
	"tqsim/internal/resultstore"
	"tqsim/internal/rng"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent bounds jobs executing simultaneously
	// (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds jobs waiting for an execution slot; beyond it the
	// server answers 429 instead of queueing unboundedly (default 16).
	QueueDepth int
	// MemoryBudgetBytes caps the planner-estimated peak state memory of
	// all running jobs combined. A job whose estimate alone exceeds the
	// budget is rejected 413; one that merely doesn't fit *now* is
	// rejected 503 for the client to retry (0 = unlimited).
	MemoryBudgetBytes int64
	// MaxShots rejects absurd jobs up front (default 1<<22).
	MaxShots int
	// DefaultBatchShots splits jobs into batches of this many shots when
	// the request doesn't choose (0 = one batch per job).
	DefaultBatchShots int
	// PlanCacheEntries caps the plan cache (default 256). The cache is LRU:
	// under sustained traffic from many distinct circuits old plans are
	// evicted instead of growing without bound.
	PlanCacheEntries int
	// MaxSweepPoints caps a sweep's expanded grid size (default 4096);
	// larger sweeps are rejected 413 before any planning work.
	MaxSweepPoints int
	// WorkerMode enables the shard-lease endpoints (POST /v1/shard,
	// honored GET /v1/worker): the tqsimd -worker role.
	WorkerMode bool
	// Workers lists worker base URLs (e.g. "http://10.0.0.2:8651"); when
	// non-empty the server acts as a coordinator and shards multi-batch
	// jobs across them.
	Workers []string
	// LeaseTimeout bounds one shard lease's round trip, including its retry
	// attempts (default 10m, negative = unlimited). A worker that accepts a
	// lease and then hangs — alive TCP, no response — would otherwise stall
	// the whole job forever; on timeout the worker is marked dead and the
	// lease requeues to the rest of the pool. Size it above the longest
	// legitimate lease (a lease is a handful of batches), not above zero.
	LeaseTimeout time.Duration
	// AcceptWorkers enables elastic membership on a coordinator with no
	// static worker list: workers self-register via POST /v1/workers
	// (tqsimd -worker -join). A server with Config.Workers accepts
	// registrations regardless.
	AcceptWorkers bool
	// SuspectAfter and DeadAfter drive the liveness state machine for
	// workers that heartbeat: a worker whose last heartbeat (or probe, or
	// completed lease) is older than SuspectAfter gets no new leases; older
	// than DeadAfter it is declared dead until it announces or answers a
	// probe again (defaults 5s / 15s). Static -workers entries that never
	// heartbeat are exempt — they keep probe-based liveness.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// LeaseRetries bounds per-worker retry attempts after a failed lease or
	// probe call, with exponential backoff and jitter between attempts
	// (default 2, negative = no retries).
	LeaseRetries int
	// RetryBackoff is the base backoff before the first retry; attempt k
	// waits a jittered RetryBackoff<<k (default 25ms).
	RetryBackoff time.Duration
	// RetryAfterCap caps how long the coordinator honors a worker's
	// Retry-After hint on 503 before retrying (default 2s). Exhausted
	// retries exclude the worker from the job.
	RetryAfterCap time.Duration
	// BreakerThreshold opens a worker's circuit breaker after this many
	// consecutive failed lease attempts; after BreakerCooldown the breaker
	// half-opens and admits one trial lease (defaults 5 / 5s; threshold
	// negative = breaker disabled).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeBackoff spaces health probes of a non-alive worker (default 5s):
	// probing runs on the job submission path and after mid-job failures,
	// and a blackholed worker must not add probe latency to every job.
	ProbeBackoff time.Duration
	// Transport overrides the HTTP transport for coordinator→worker calls
	// (nil = http.DefaultTransport). The fault-injection hook:
	// internal/faultinject wraps it to inject delays, drops and corruption
	// deterministically.
	Transport http.RoundTripper
	// JitterSeed seeds the backoff-jitter stream (default 1) so retry
	// schedules replay deterministically under a fixed fault plan.
	JitterSeed uint64
	// StoreEntries enables the content-addressed result store and caps its
	// in-memory LRU front. A stored job or sweep is replayed byte-identical
	// from the store — the simulator's determinism contract makes the
	// stored bytes exactly what a fresh run would produce — without
	// consuming an execution slot. 0 disables the store unless StoreDir is
	// set (the library default; tqsimd enables it).
	StoreEntries int
	// StoreDir persists stored results to this directory (atomic
	// write-then-rename), so replays survive daemon restarts. Empty keeps
	// the store memory-only.
	StoreDir string
	// StoreMaxBytes caps StoreDir's total size (default 1 GiB).
	StoreMaxBytes int64
	// SnapshotCacheBytes enables the cross-job ideal-spine cache and caps
	// its resident state bytes. Every job batch and sweep point whose run
	// reuses quiet segments takes its spine from it, keyed by gate-prefix
	// digest, so runs whose circuits share a gate prefix share the states
	// at common cuts; a run that does not reuse never touches it. 0
	// disables it (the library default; tqsimd enables it): a job's runs
	// then build their own spines and a sweep keeps its own cache.
	// Negative selects no byte cap.
	SnapshotCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxShots <= 0 {
		c.MaxShots = 1 << 22
	}
	if c.PlanCacheEntries <= 0 {
		c.PlanCacheEntries = 256
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 10 * time.Minute
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 5 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 15 * time.Second
	}
	if c.DeadAfter < c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter
	}
	if c.LeaseRetries == 0 {
		c.LeaseRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = 5 * time.Second
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	return c
}

// Stats is the /v1/stats payload.
type Stats struct {
	JobsCompleted     uint64 `json:"jobs_completed"`
	JobsFailed        uint64 `json:"jobs_failed"`
	JobsCanceled      uint64 `json:"jobs_canceled"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedMemory    uint64 `json:"rejected_memory"`
	RejectedDraining  uint64 `json:"rejected_draining"`
	BatchesRun        uint64 `json:"batches_run"`
	SweepsCompleted   uint64 `json:"sweeps_completed"`
	SweepPointsRun    uint64 `json:"sweep_points_run"`
	PlanCacheHits     uint64 `json:"plan_cache_hits"`
	PlanCacheMisses   uint64 `json:"plan_cache_misses"`
	PlanCacheEvicted  uint64 `json:"plan_cache_evicted"`
	PlanCacheEntries  int    `json:"plan_cache_entries"`
	MemoryInUseBytes  int64  `json:"memory_in_use_bytes"`
	Draining          bool   `json:"draining"`
	// Coordinator-only counters: shard leases handed to workers, leases
	// re-dispatched after a failure, and workers declared dead.
	ShardsDispatched uint64 `json:"shards_dispatched,omitempty"`
	ShardsRequeued   uint64 `json:"shards_requeued,omitempty"`
	WorkerFailures   uint64 `json:"worker_failures,omitempty"`
	WorkersAlive     int    `json:"workers_alive,omitempty"`
	WorkersTotal     int    `json:"workers_total,omitempty"`
	// Resilient-dispatch counters: lease retry attempts, shard responses
	// rejected by checksum, Retry-After waits honored, and elastic
	// membership churn (self-registrations and dead→alive revivals).
	LeaseRetries     uint64 `json:"lease_retries,omitempty"`
	ChecksumFailures uint64 `json:"checksum_failures,omitempty"`
	RetryAfterWaits  uint64 `json:"retry_after_waits,omitempty"`
	WorkersJoined    uint64 `json:"workers_joined,omitempty"`
	WorkersRevived   uint64 `json:"workers_revived,omitempty"`
	// Workers is the per-worker registry view: liveness state, breaker
	// state, heartbeat age, lease/retry/requeue counts and utilization.
	Workers []WorkerStat `json:"workers,omitempty"`
	// Result-store counters: jobs and sweeps answered as stored replays vs
	// looked up and missed, and the store's entry count and resident bytes
	// (disk bytes when a backing directory is configured).
	ResultsHits    uint64 `json:"results_hits"`
	ResultsMisses  uint64 `json:"results_misses"`
	ResultsEntries int    `json:"results_entries"`
	ResultsBytes   int64  `json:"results_bytes"`
	// Snapshot-cache counters: ideal spine states served from the cross-job
	// cache vs computed — counted per state, boundaries and interior
	// checkpoints alike, once per run that takes a spine (a qft_n12 (806,3)
	// run books 6) — and the cache's resident state bytes.
	SnapshotHits   uint64 `json:"snapshot_hits"`
	SnapshotMisses uint64 `json:"snapshot_misses"`
	SnapshotBytes  int64  `json:"snapshot_bytes"`
	// Per-request latency accounting over completed requests — jobs, sweeps
	// and, on a worker, shard leases; replays included, rejections and
	// failures excluded, so LatencyCount equals the completed count —
	// measured from request receipt to the final write on a log-bucketed
	// histogram (internal/metrics.LatencyHist). This is the server-side
	// view the tqsimgen load harness cross-checks its client-side
	// measurements against: client p99 ≥ server p99, with the gap being
	// network and client-side queueing.
	LatencyCount  uint64  `json:"latency_count"`
	LatencyMeanMS float64 `json:"latency_mean_ms"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP95MS  float64 `json:"latency_p95_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
}

// Server is the tqsimd HTTP handler. Construct with New.
type Server struct {
	cfg Config
	mux *http.ServeMux

	slots    chan struct{} // execution permits (MaxConcurrent)
	draining atomic.Bool

	// pendMu guards the pending-job count and the idle signal. DrainWait
	// blocks on idleCh (closed by unpend when the count reaches zero)
	// instead of polling — drain completes the instant the last job does.
	pendMu  sync.Mutex
	pending int
	idleCh  chan struct{}

	memMu    sync.Mutex
	memInUse int64
	// planMu guards planCache. Plans are tiny next to running state
	// vectors, but they pin their circuits (gate slices), so the cache is
	// entry-capped (Config.PlanCacheEntries) against sustained traffic from
	// many distinct circuits.
	planMu    sync.Mutex
	planCache *lru.Cache[*planner.Resolved]
	// sweepMu guards sweepPreps, the worker's cache of prepared sweeps:
	// a coordinator cuts one sweep into several leases per worker, and
	// re-preparing per lease would rebuild the grid's plans (and, with the
	// snapshot cache off, the spines in the sweep's own cache) the previous
	// lease already paid for.
	sweepMu    sync.Mutex
	sweepPreps *lru.Cache[*sweepJob]
	pool       *registry // non-nil when coordinating a worker fleet
	stats      [statCount]atomic.Uint64

	// results replays finished jobs and sweeps byte-identically without
	// simulating; snapCache shares ideal spine states across runs. Both
	// nil when disabled by config. storeErr records a failed store open
	// (e.g. an unwritable StoreDir): New still returns a working server so
	// the signature stays error-free, and cmd/tqsimd checks StoreError.
	results   *resultstore.Store
	snapCache *tqsim.SnapshotCache
	storeErr  error

	// reqLat is the per-request latency histogram behind the /v1/stats
	// latency_* fields: every completed request (stored replays included)
	// records its receipt-to-final-write wall time. Atomic buckets, so
	// recording never contends with a concurrent stats read.
	reqLat metrics.LatencyHist
}

const (
	statCompleted = iota
	statFailed
	statCanceled
	statQueueFull
	statMemory
	statDraining
	statBatches
	statPlanHits
	statPlanMisses
	statShardsDispatched
	statShardsRequeued
	statWorkerFailures
	statSweepsCompleted
	statSweepPoints
	statLeaseRetries
	statChecksumFails
	statRetryAfterWaits
	statWorkersJoined
	statWorkersRevived
	statResultsHits
	statResultsMisses
	statCount
)

// statusClientClosedRequest classifies a job stopped because the client
// went away (nginx's 499 convention). It is never written to a live
// client — the connection is already gone — but it routes the bookkeeping:
// cancelled jobs count as canceled, not failed.
const statusClientClosedRequest = 499

// New returns a ready-to-serve handler.
func New(cfg Config) *Server {
	s := &Server{
		cfg: cfg.withDefaults(),
		mux: http.NewServeMux(),
	}
	s.planCache = lru.New[*planner.Resolved](s.cfg.PlanCacheEntries, 0)
	// A handful of entries suffices: the cache exists so the several
	// leases of one in-flight sweep share one Prepared (and its spine
	// cache), not to retain history. Spines pinned by idle entries are
	// bounded by this cap times the per-sweep spine states.
	s.sweepPreps = lru.New[*sweepJob](4, 0)
	s.slots = make(chan struct{}, s.cfg.MaxConcurrent)
	if len(s.cfg.Workers) > 0 || s.cfg.AcceptWorkers {
		s.pool = newRegistry(s.cfg)
	}
	if s.cfg.StoreEntries > 0 || s.cfg.StoreDir != "" {
		st, err := resultstore.Open(resultstore.Config{
			MaxEntries:   s.cfg.StoreEntries,
			Dir:          s.cfg.StoreDir,
			MaxDiskBytes: s.cfg.StoreMaxBytes,
		})
		if err != nil {
			s.storeErr = err
		} else {
			s.results = st
		}
	}
	if s.cfg.SnapshotCacheBytes != 0 {
		s.snapCache = tqsim.NewSnapshotCache(s.cfg.SnapshotCacheBytes)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", view(func() any { return s.Snapshot() }))
	s.mux.HandleFunc("GET /v1/backends", view(func() any {
		return map[string]any{"backends": append([]string{tqsim.AutoBackend}, tqsim.Backends()...)}
	}))
	// The capacity advertisement: coordinators poll it as the health check
	// and placement input; the same payload rides inside WorkerAnnounce
	// heartbeats.
	s.mux.HandleFunc("GET /v1/worker", view(func() any { return s.workerInfo() }))
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweeps)
	s.mux.HandleFunc("POST /v1/shard", s.handleShard)
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkerJoin)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StoreError reports why the result store failed to open (nil when the
// store is disabled or healthy). New never fails: a server with a broken
// store still simulates correctly, it just cannot replay — callers that
// consider persistence mandatory (cmd/tqsimd with -store-dir) check here.
func (s *Server) StoreError() error { return s.storeErr }

// BeginDrain moves the server into draining mode: new submissions (jobs and
// shard leases) are rejected 503 with a Retry-After header while in-flight
// work runs to completion. cmd/tqsimd calls it on SIGTERM immediately
// before http.Server.Shutdown, which waits for the in-flight handlers.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainWait blocks until no jobs are running or queued, or ctx expires.
// cmd/tqsimd calls it between BeginDrain and http.Server.Shutdown: while
// it waits the listener stays open, so late submissions receive the
// documented 503 + Retry-After instead of a connection refusal — the
// difference between a load balancer retrying elsewhere and surfacing an
// error to the client.
//
// The wait is a completion signal, not a poll: unpend closes the idle
// channel when the pending count reaches zero, so drain returns the moment
// the last job finishes and burns no timer churn while waiting.
func (s *Server) DrainWait(ctx context.Context) error {
	for {
		s.pendMu.Lock()
		if s.pending == 0 {
			s.pendMu.Unlock()
			return nil
		}
		if s.idleCh == nil {
			s.idleCh = make(chan struct{})
		}
		idle := s.idleCh
		s.pendMu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-idle:
			// Re-check: a submission may have slipped in between the close
			// and this wakeup (possible when DrainWait is used without
			// BeginDrain, e.g. in tests).
		}
	}
}

// JobRequest is the POST /v1/jobs (and /v1/plan) body. Exactly one of QASM
// or Circuit selects the program.
type JobRequest struct {
	// QASM is an OpenQASM 2.0 program.
	QASM string `json:"qasm,omitempty"`
	// Circuit names a benchmark-suite circuit (e.g. "qft_n12") instead.
	Circuit string `json:"circuit,omitempty"`
	// Noise names the model, case-insensitively: DC (default), DCR, TR,
	// TRR, AD, ADR, PD, PDR, ALL, or ideal/none (noise.Lookup's vocabulary).
	Noise string `json:"noise,omitempty"`
	// Shots is the requested sample count (required, positive).
	Shots int `json:"shots"`
	// Seed selects the reproducible trajectory stream.
	Seed uint64 `json:"seed"`
	// Mode is "tqsim" (tree reuse, default) or "baseline" (flat plan).
	Mode string `json:"mode,omitempty"`
	// Backend picks the engine by registry name or "auto" (default).
	Backend string `json:"backend,omitempty"`
	// BatchShots splits the job into batches of this many shots
	// (0 = the server's DefaultBatchShots; negative = force one batch).
	BatchShots int `json:"batch_shots,omitempty"`
	// Stream requests an NDJSON per-batch stream instead of one JSON body.
	Stream bool `json:"stream,omitempty"`
	// CopyCost, MaxLevels, MemoryBudgetBytes, Parallelism, Epsilon and
	// ClusterNodes forward to tqsim.Options (zero = defaults). CopyCost is
	// never host-profiled in the daemon: plans must be deterministic so the
	// plan cache and cross-host replay agree.
	CopyCost          float64 `json:"copy_cost,omitempty"`
	MaxLevels         int     `json:"max_levels,omitempty"`
	MemoryBudgetBytes int64   `json:"memory_budget_bytes,omitempty"`
	Parallelism       int     `json:"parallelism,omitempty"`
	Epsilon           float64 `json:"epsilon,omitempty"`
	ClusterNodes      int     `json:"cluster_nodes,omitempty"`
}

// DecisionJSON is the wire form of a planner Decision.
type DecisionJSON struct {
	Backend      string          `json:"backend"`
	Mode         string          `json:"mode,omitempty"`
	Parallelism  int             `json:"parallelism"`
	ClusterNodes int             `json:"cluster_nodes,omitempty"`
	EstPeakBytes int64           `json:"est_peak_bytes"`
	EstPeak      string          `json:"est_peak"`
	Why          string          `json:"why"`
	Rejected     []CandidateJSON `json:"rejected,omitempty"`
}

// CandidateJSON is one rejected engine in a DecisionJSON.
type CandidateJSON struct {
	Backend string `json:"backend"`
	Mode    string `json:"mode,omitempty"`
	Reason  string `json:"reason"`
}

func decisionJSON(d *tqsim.Decision) *DecisionJSON {
	out := &DecisionJSON{
		Backend:      d.Backend,
		Mode:         d.Mode,
		Parallelism:  d.Parallelism,
		ClusterNodes: d.ClusterNodes,
		EstPeakBytes: d.EstPeakBytes,
		EstPeak:      hpcmodel.FormatBytes(float64(d.EstPeakBytes)),
		Why:          d.Why,
	}
	for _, c := range d.Rejected() {
		out.Rejected = append(out.Rejected, CandidateJSON{Backend: c.Backend, Mode: c.Mode, Reason: c.Reason})
	}
	return out
}

// JobResponse is the non-streaming POST /v1/jobs body. Counts keys are the
// decimal basis indices, values the shot counts.
type JobResponse struct {
	Circuit   string         `json:"circuit"`
	Width     int            `json:"width"`
	Backend   string         `json:"backend"`
	Structure string         `json:"structure"`
	Outcomes  int            `json:"outcomes"`
	Batches   int            `json:"batches"`
	Counts    map[string]int `json:"counts"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Decision  *DecisionJSON  `json:"decision,omitempty"`
	PlanHit   bool           `json:"plan_cache_hit"`
	// Distributed reports whether batches were sharded across the worker
	// pool (the histogram is byte-identical either way).
	Distributed bool `json:"distributed,omitempty"`
}

// batchLine is one NDJSON record of a streaming response. In distributed
// mode batch lines arrive in shard-completion order, which is not
// deterministic — each line's content and the final merged histogram are.
type batchLine struct {
	Type      string         `json:"type"` // "plan" | "batch" | "done" | "error"
	Batch     int            `json:"batch,omitempty"`
	Batches   int            `json:"batches,omitempty"`
	Shots     int            `json:"shots,omitempty"`
	Seed      uint64         `json:"seed,omitempty"`
	Structure string         `json:"structure,omitempty"`
	Backend   string         `json:"backend,omitempty"`
	Counts    map[string]int `json:"counts,omitempty"`
	Outcomes  int            `json:"outcomes,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms,omitempty"`
	Decision  *DecisionJSON  `json:"decision,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// job is a validated, planned request ready to execute.
type job struct {
	circuit *tqsim.Circuit
	seed    uint64
	shots   int
	// batchSize is the per-batch shot count; 0 runs one batch. Batches are
	// never materialized as a slice: a max-shots job at batch size 1 is
	// millions of batches but only two distinct sizes, so resolved runs are
	// held per size and batch i's size is computed on demand.
	batchSize int
	runBySize map[int]*planner.Resolved
	planHit   bool
	// wire is the request to forward in shard leases, with every value that
	// shapes batch arithmetic pinned to the coordinator's resolution (the
	// worker must never re-apply its own defaults and diverge).
	wire *JobRequest
	// snaps is the server's cross-job snapshot cache, handed to every batch
	// run (nil when disabled: a reusing run then builds its own spine).
	snaps *tqsim.SnapshotCache

	// The response under construction: record folds batches in, finish
	// renders it.
	merged             map[uint64]int
	outcomes           int
	backend, structure string
}

// numBatches returns how many batches the job runs.
func (j *job) numBatches() int {
	if j.batchSize <= 0 || j.batchSize >= j.shots {
		return 1
	}
	return (j.shots + j.batchSize - 1) / j.batchSize
}

// batchShots returns batch i's shot count (the last batch is ragged).
func (j *job) batchShots(i int) int {
	n := j.numBatches()
	if n == 1 {
		return j.shots
	}
	if i == n-1 {
		return j.shots - (n-1)*j.batchSize
	}
	return j.batchSize
}

// runFor returns batch i's resolved run: the plan, engine, worker count and
// estimate the job was admitted on, which is exactly what executes.
func (j *job) runFor(i int) *planner.Resolved { return j.runBySize[j.batchShots(i)] }

// decision is the planner's candidate table for the job's first batch.
func (j *job) decision() *tqsim.Decision { return j.runFor(0).Decision }

// httpError carries a status code with the message.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// prepare validates the request, resolves the circuit and noise model,
// plans every batch (through the cache) and records the planner decision.
func (s *Server) prepare(req *JobRequest) (*job, *httpError) {
	if (req.QASM == "") == (req.Circuit == "") {
		return nil, errf(http.StatusBadRequest, "provide exactly one of qasm or circuit")
	}
	if req.Shots <= 0 {
		return nil, errf(http.StatusBadRequest, "shots must be positive")
	}
	if req.Shots > s.cfg.MaxShots {
		return nil, errf(http.StatusRequestEntityTooLarge,
			"shots %d exceeds the server limit %d", req.Shots, s.cfg.MaxShots)
	}
	noiseName := req.Noise
	if noiseName == "" {
		noiseName = "DC"
	}
	m, err := tqsim.LookupNoise(noiseName) // nil for "ideal"
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	// The canonical spelling, not the client's, goes into the wire request
	// and with it into plan, store and lease keys: "dc" and "DC" are one job.
	noiseName = m.Name()
	mode := req.Mode
	if mode == "" {
		mode = "tqsim"
	}
	if mode != "tqsim" && mode != "baseline" {
		return nil, errf(http.StatusBadRequest, "mode must be tqsim or baseline, not %q", req.Mode)
	}
	backend := req.Backend
	if backend == "" {
		backend = tqsim.AutoBackend
	}
	if err := planner.CheckBackend(backend); err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}

	var c *tqsim.Circuit
	if req.QASM != "" {
		c, err = tqsim.ParseQASM("job", req.QASM)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "qasm: %v", err)
		}
	} else if c = tqsim.BenchmarkByName(req.Circuit); c == nil {
		return nil, errf(http.StatusBadRequest, "unknown suite circuit %q", req.Circuit)
	}

	// opt shapes the plan and keys the plan cache; budget — the request's,
	// else the server's — is what the job is planned and admitted under, and
	// travels inside every resolved run to the executor's reuse decision.
	opt := tqsim.Options{
		CopyCost:          req.CopyCost,
		MaxLevels:         req.MaxLevels,
		MemoryBudgetBytes: req.MemoryBudgetBytes,
		Backend:           backend,
		ClusterNodes:      req.ClusterNodes,
		Parallelism:       req.Parallelism,
		Epsilon:           req.Epsilon,
	}
	budget := req.MemoryBudgetBytes
	if budget == 0 {
		budget = s.cfg.MemoryBudgetBytes
	}
	j := &job{
		circuit:   c,
		seed:      req.Seed,
		shots:     req.Shots,
		snaps:     s.snapCache,
		merged:    make(map[uint64]int),
		runBySize: make(map[int]*planner.Resolved, 2),
	}
	j.batchSize = req.BatchShots
	if j.batchSize == 0 {
		j.batchSize = s.cfg.DefaultBatchShots
	}
	wire := *req
	wire.Stream = false
	wire.Noise = noiseName
	wire.Mode = mode
	wire.Backend = backend
	wire.BatchShots = j.batchSize
	if wire.BatchShots == 0 {
		wire.BatchShots = -1 // pin "one batch" against remote defaults
	}
	j.wire = &wire

	// Resolve the (at most two) distinct batch sizes: the full batch and the
	// ragged last one.
	hash := circuitHash(c, noiseName, mode, &opt)
	n := j.numBatches()
	for _, i := range []int{0, n - 1} {
		size := j.batchShots(i)
		if _, done := j.runBySize[size]; done {
			continue
		}
		run, hit, herr := s.planBatch(hash, c, m, size, mode, opt, budget)
		if herr != nil {
			return nil, herr
		}
		j.runBySize[size] = run
		if i == 0 {
			j.planHit = hit
		}
	}

	// Pin the two planner inputs that default from host/server state —
	// worker count (GOMAXPROCS) and memory budget (server config) — into
	// the shard-lease request. Planner decisions are deterministic in
	// (plan, noise, budget, worker count), so with these pinned a worker
	// re-planning the wire request resolves "auto" to the same engine the
	// coordinator did; left unpinned, a heterogeneous worker could pick a
	// different engine (e.g. tableau vs dense, whose per-seed sampling
	// differs) and break the byte-identical-merge guarantee.
	if wire.Parallelism == 0 {
		wire.Parallelism = j.decision().Parallelism
	}
	wire.MemoryBudgetBytes = budget
	return j, nil
}

// planBatch returns the resolved run for one batch size (plan, decision and
// the configuration that executes), computing and caching it on miss.
func (s *Server) planBatch(hash string, c *tqsim.Circuit, m *tqsim.NoiseModel, shots int, mode string, opt tqsim.Options, budget int64) (*planner.Resolved, bool, *httpError) {
	key := fmt.Sprintf("%s|%d", hash, shots)
	s.planMu.Lock()
	run, ok := s.planCache.Get(key)
	s.planMu.Unlock()
	if ok {
		s.stats[statPlanHits].Add(1)
		return run, true, nil
	}
	s.stats[statPlanMisses].Add(1)

	var plan *tqsim.Plan
	if mode == "baseline" {
		plan = tqsim.PlanBaseline(c, shots)
	} else {
		plan = tqsim.PlanDCP(c, m, shots, opt)
	}
	// Admit: the planner checks the budget even for explicit backends.
	run, err := planner.Admit(plan, m, opt.Backend, planner.Budget{
		MemoryBytes:  budget,
		Parallelism:  opt.Parallelism,
		ClusterNodes: opt.ClusterNodes,
	})
	if err != nil {
		s.stats[statMemory].Add(1)
		return nil, false, errf(http.StatusRequestEntityTooLarge, "planner: %v", err)
	}
	s.planMu.Lock()
	s.planCache.Add(key, run, 0)
	s.planMu.Unlock()
	return run, false, nil
}

// circuitHash keys the plan cache: the circuit's structural digest plus
// every option that shapes the plan or the decision. The digest covers the
// full gate content — including raw-unitary matrices with no QASM 2.0
// form — because a cached plan carries its gate list: two same-shape
// circuits that collide here would silently execute each other's gates.
func circuitHash(c *tqsim.Circuit, noiseName, mode string, opt *tqsim.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%g\x00%d\x00%d\x00%s\x00%d\x00%d\x00%g",
		tqsim.CircuitDigest(c), noiseName, mode, opt.CopyCost, opt.MaxLevels, opt.MemoryBudgetBytes,
		opt.Backend, opt.ClusterNodes, opt.Parallelism, opt.Epsilon)
	return hex.EncodeToString(h.Sum(nil))
}

// BatchSeed derives batch i's trajectory seed from the job seed. Batch 0
// keeps the job seed, so single-batch jobs are byte-identical to
// tqsim.RunTQSim at the same seed; later batches use statistically
// independent split streams, deterministically.
func BatchSeed(seed uint64, i int) uint64 {
	return rng.SeedAt(seed, uint64(i))
}

// errQueueFull reports acquire rejected a submission because MaxConcurrent
// running plus QueueDepth queued requests are already admitted.
var errQueueFull = errors.New("queue full")

// acquire takes an execution slot, bounded by MaxConcurrent running plus
// QueueDepth waiting. Returns errQueueFull when the queue is full, and the
// context's error when the caller goes away while queued — a client that
// disconnects while queued at capacity must not take a slot when one frees
// and run every unit into the dead connection.
func (s *Server) acquire(ctx context.Context) error {
	s.pendMu.Lock()
	if s.pending >= s.cfg.MaxConcurrent+s.cfg.QueueDepth {
		s.pendMu.Unlock()
		return errQueueFull
	}
	s.pending++
	s.pendMu.Unlock()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.unpend()
		return ctx.Err()
	}
}

func (s *Server) release() {
	<-s.slots
	s.unpend()
}

// unpend drops one pending claim — a finished request's, or one that left
// the queue sideways — and signals DrainWait when it was the last, so a
// drain never hangs on a request that is no longer there.
func (s *Server) unpend() {
	s.pendMu.Lock()
	s.pending--
	if s.pending == 0 && s.idleCh != nil {
		close(s.idleCh)
		s.idleCh = nil
	}
	s.pendMu.Unlock()
}

// reserveMemory admits a job against the shared budget using the planner's
// peak estimate. 413 when the job can never fit, 503 when it doesn't fit
// right now.
func (s *Server) reserveMemory(est int64) *httpError {
	if s.cfg.MemoryBudgetBytes <= 0 {
		return nil
	}
	if est > s.cfg.MemoryBudgetBytes {
		s.stats[statMemory].Add(1)
		return errf(http.StatusRequestEntityTooLarge,
			"estimated peak %s exceeds the server budget %s",
			hpcmodel.FormatBytes(float64(est)), hpcmodel.FormatBytes(float64(s.cfg.MemoryBudgetBytes)))
	}
	s.memMu.Lock()
	defer s.memMu.Unlock()
	if s.memInUse+est > s.cfg.MemoryBudgetBytes {
		s.stats[statMemory].Add(1)
		return errf(http.StatusServiceUnavailable,
			"estimated peak %s does not fit the budget right now (%s of %s in use); retry",
			hpcmodel.FormatBytes(float64(est)), hpcmodel.FormatBytes(float64(s.memInUse)),
			hpcmodel.FormatBytes(float64(s.cfg.MemoryBudgetBytes)))
	}
	s.memInUse += est
	return nil
}

func (s *Server) releaseMemory(est int64) {
	if s.cfg.MemoryBudgetBytes <= 0 {
		return
	}
	s.memMu.Lock()
	s.memInUse -= est
	s.memMu.Unlock()
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, func() (*submission, *httpError) {
		var req JobRequest
		if herr := decodeBody(w, r, &req); herr != nil {
			return nil, herr
		}
		j, herr := s.prepare(&req)
		if herr != nil {
			return nil, herr
		}
		return whole(j, req.Stream), nil
	})
}

// The work implementation: a job's units are its shot batches.

func (j *job) units() int                      { return j.numBatches() }
func (j *job) peak() int64                     { return j.runFor(0).EstPeakBytes }
func (j *job) counters() (unit, completed int) { return statBatches, statCompleted }

func (j *job) lease(from, to int) *ShardRequest {
	return &ShardRequest{Job: *j.wire, From: from, To: to}
}

// run executes batches [from, to) in-process, threading ctx into the
// executor so a client disconnect (or a coordinator re-leasing this shard)
// stops in-flight trajectory work instead of computing results nobody will
// read.
func (j *job) run(ctx context.Context, from, to int, emit func(*ShardBatch) *httpError) *httpError {
	for i := from; i < to; i++ {
		if err := ctx.Err(); err != nil {
			return errf(statusClientClosedRequest, "cancelled before batch %d: %v", i, err)
		}
		run := j.runFor(i)
		seed := BatchSeed(j.seed, i)
		res, err := run.Run(ctx, seed, j.snaps)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return errf(statusClientClosedRequest, "batch %d cancelled: %v", i, err)
			}
			return errf(http.StatusUnprocessableEntity, "batch %d: %v", i, err)
		}
		if herr := emit(&ShardBatch{
			Batch:     i,
			Seed:      seed,
			Outcomes:  res.Outcomes,
			Counts:    countsJSON(res.Counts),
			Backend:   res.BackendName,
			Structure: res.Structure,
			counts:    res.Counts,
		}); herr != nil {
			return herr
		}
	}
	return nil
}

func (j *job) header(bool) any {
	return &batchLine{
		Type:      "plan",
		Batches:   j.numBatches(),
		Structure: j.runFor(0).Plan.Structure(),
		Backend:   j.decision().Backend,
		Decision:  decisionJSON(j.decision()),
	}
}

func (j *job) record(sb *ShardBatch) (any, *httpError) {
	counts := sb.counts
	if counts == nil { // a worker's batch: only the wire histogram exists
		counts = make(map[uint64]int, len(sb.Counts))
		for k, v := range sb.Counts {
			key, err := strconv.ParseUint(k, 10, 64)
			if err != nil {
				return nil, errf(http.StatusBadGateway, "worker returned non-numeric outcome key %q", k)
			}
			counts[key] = v
		}
	}
	metrics.MergeCounts(j.merged, counts)
	j.outcomes += sb.Outcomes
	if sb.Backend != "" {
		j.backend, j.structure = sb.Backend, sb.Structure
	}
	return &batchLine{Type: "batch", Batch: sb.Batch, Shots: sb.Outcomes, Seed: sb.Seed, Counts: sb.Counts}, nil
}

func (j *job) finish(elapsedMS float64, distributed bool) (body, done any) {
	resp := &JobResponse{
		Circuit:     j.circuit.Name,
		Width:       j.circuit.NumQubits,
		Backend:     j.backend,
		Structure:   j.structure,
		Outcomes:    j.outcomes,
		Batches:     j.numBatches(),
		Counts:      countsJSON(j.merged),
		ElapsedMS:   elapsedMS,
		Decision:    decisionJSON(j.decision()),
		PlanHit:     j.planHit,
		Distributed: distributed,
	}
	return resp, &batchLine{
		Type:      "done",
		Batches:   resp.Batches,
		Outcomes:  resp.Outcomes,
		Counts:    resp.Counts,
		ElapsedMS: resp.ElapsedMS,
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		s.fail(w, herr)
		return
	}
	j, herr := s.prepare(&req)
	if herr != nil {
		writeError(w, herr.status, herr.msg)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"circuit":   j.circuit.Name,
		"width":     j.circuit.NumQubits,
		"structure": j.runFor(0).Plan.Structure(),
		"batches":   j.numBatches(),
		"decision":  decisionJSON(j.decision()),
		"explain":   j.decision().String(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	drainRequest(r)
	if s.Draining() {
		// Health checks fail during drain so load balancers stop routing
		// new traffic while in-flight jobs finish.
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "worker": s.cfg.WorkerMode})
}

// Snapshot returns the current counters (also served at /v1/stats).
func (s *Server) Snapshot() Stats {
	s.memMu.Lock()
	inUse := s.memInUse
	s.memMu.Unlock()
	s.planMu.Lock()
	planEntries, planEvicted := s.planCache.Len(), s.planCache.Evicted()
	s.planMu.Unlock()
	st := Stats{
		JobsCompleted:     s.stats[statCompleted].Load(),
		JobsFailed:        s.stats[statFailed].Load(),
		JobsCanceled:      s.stats[statCanceled].Load(),
		RejectedQueueFull: s.stats[statQueueFull].Load(),
		RejectedMemory:    s.stats[statMemory].Load(),
		RejectedDraining:  s.stats[statDraining].Load(),
		BatchesRun:        s.stats[statBatches].Load(),
		SweepsCompleted:   s.stats[statSweepsCompleted].Load(),
		SweepPointsRun:    s.stats[statSweepPoints].Load(),
		PlanCacheHits:     s.stats[statPlanHits].Load(),
		PlanCacheMisses:   s.stats[statPlanMisses].Load(),
		PlanCacheEvicted:  planEvicted,
		PlanCacheEntries:  planEntries,
		MemoryInUseBytes:  inUse,
		Draining:          s.Draining(),
		ShardsDispatched:  s.stats[statShardsDispatched].Load(),
		ShardsRequeued:    s.stats[statShardsRequeued].Load(),
		WorkerFailures:    s.stats[statWorkerFailures].Load(),
		LeaseRetries:      s.stats[statLeaseRetries].Load(),
		ChecksumFailures:  s.stats[statChecksumFails].Load(),
		RetryAfterWaits:   s.stats[statRetryAfterWaits].Load(),
		WorkersJoined:     s.stats[statWorkersJoined].Load(),
		WorkersRevived:    s.stats[statWorkersRevived].Load(),
	}
	if s.pool != nil {
		st.Workers = s.workerStats()
		st.WorkersTotal = len(st.Workers)
		for _, ws := range st.Workers {
			if ws.State == workerAlive {
				st.WorkersAlive++
			}
		}
	}
	st.ResultsHits = s.stats[statResultsHits].Load()
	st.ResultsMisses = s.stats[statResultsMisses].Load()
	if s.results != nil {
		st.ResultsEntries = s.results.Len()
		st.ResultsBytes = s.results.Bytes()
	}
	if s.snapCache != nil {
		st.SnapshotHits = s.snapCache.Hits()
		st.SnapshotMisses = s.snapCache.Misses()
		st.SnapshotBytes = s.snapCache.Bytes()
	}
	if n := s.reqLat.Count(); n > 0 {
		st.LatencyCount = n
		st.LatencyMeanMS = millis(s.reqLat.Mean())
		st.LatencyP50MS = millis(s.reqLat.Quantile(0.50))
		st.LatencyP95MS = millis(s.reqLat.Quantile(0.95))
		st.LatencyP99MS = millis(s.reqLat.Quantile(0.99))
	}
	return st
}

// millis renders a duration as the wire's fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// view serves a body-less GET endpoint: the current value of v as JSON.
func view(v func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		drainRequest(r)
		writeJSON(w, http.StatusOK, v())
	}
}

// countsJSON renders a histogram with decimal string keys. Response bytes
// are deterministic because encoding/json serializes map keys in sorted
// (lexicographic) order itself.
func countsJSON(counts map[uint64]int) map[string]int {
	out := make(map[string]int, len(counts))
	for k, v := range counts {
		out[strconv.FormatUint(k, 10)] = v
	}
	return out
}

// drainRequest consumes any unread request body. net/http only cancels
// r.Context() on client disconnect once the body has been read, so a
// handler that never touches it can park forever on a dead connection —
// the PR 5 lease-timeout footgun. Harmless on body-less GETs.
func drainRequest(r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //lint:allow errdrop -- terminal response write: the status is already committed, nothing to abort
}

// writeError renders an error body. Every 503 carries a Retry-After
// header: all of them (queue, memory, drain, worker-busy) mean "the
// request is fine, the capacity isn't", and well-behaved clients key
// their backoff on the header's presence.
func writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": msg})
}
