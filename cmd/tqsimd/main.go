// Command tqsimd is the long-running TQSim batch service: an HTTP/JSON
// daemon that accepts OpenQASM (or benchmark-suite) simulation jobs,
// admission-controls them with the planner's cost and memory estimates,
// batches shots through a bounded scheduler, and streams per-batch
// histograms. A job is planned as a one-cell sweep, through the same
// engine as POST /v1/sweeps.
//
// Roles: a plain tqsimd serves jobs single-process. With -worker it also
// accepts shard leases (POST /v1/shard) from a coordinator; with -workers
// (a static list) or -accept-workers (elastic membership) it coordinates a
// fleet, sharding each multi-batch job's batches across the workers and
// merging the returned histograms deterministically. A worker started with
// -join announces itself to the coordinator (POST /v1/workers) and
// heartbeats on -heartbeat-interval, so workers join, leave and recover
// mid-job without any restart: the coordinator's liveness state machine
// (alive → suspect → dead → revived) feeds every in-flight dispatch loop.
//
// Quickstart (single process):
//
//	tqsimd -addr :8651 &
//	curl -s localhost:8651/v1/jobs -d '{"circuit":"bv_n10","noise":"DC","shots":2000,"seed":1}'
//	curl -s localhost:8651/v1/plan -d '{"circuit":"qft_n12","noise":"DC","shots":2000}'
//
// Result replay: finished jobs and sweeps land in a content-addressed store
// (-store-entries, on by default), so repeating the first curl above returns
// the byte-identical body without simulating — watch results_hits in
// /v1/stats. With -store-dir the store persists across restarts:
//
//	tqsimd -addr :8651 -store-dir /var/lib/tqsimd/results &
//	curl -s localhost:8651/v1/jobs -d '{"circuit":"qft_n12","noise":"DC","shots":4000,"seed":7}'
//	# ... daemon restarts ...
//	curl -s localhost:8651/v1/jobs -d '{"circuit":"qft_n12","noise":"DC","shots":4000,"seed":7}'  # replayed from disk
//
// Distributed, static pool (one coordinator, two workers):
//
//	tqsimd -worker -addr :8751 &
//	tqsimd -worker -addr :8752 &
//	tqsimd -addr :8651 -workers http://localhost:8751,http://localhost:8752 &
//	curl -s localhost:8651/v1/jobs -d '{"circuit":"qft_n12","noise":"DC","shots":4000,"seed":1,"batch_shots":500}'
//
// Distributed, elastic fleet (workers join and leave at will):
//
//	tqsimd -addr :8651 -accept-workers &
//	tqsimd -worker -addr :8751 -join http://localhost:8651 &
//	tqsimd -worker -addr :8752 -join http://localhost:8651 &   # join any time, even mid-job
//
// Endpoints:
//
//	POST /v1/jobs      run a job; {"stream":true} switches to NDJSON batches
//	POST /v1/sweeps    run a parameter/noise sweep grid; streams one NDJSON
//	                   line per point (plan & ideal-prefix reuse across
//	                   points; {"stream":false} for one JSON body)
//	POST /v1/plan      planner decision only (explainable dispatch, no run)
//	POST /v1/shard     execute a leased batch or sweep-point range (workers)
//	POST /v1/workers   worker self-registration + heartbeat (coordinators)
//	GET  /v1/worker    capacity advertisement (health + placement input)
//	GET  /v1/backends  registered engines plus "auto"
//	GET  /v1/stats     scheduler/cache/admission/shard counters, the result
//	                   store (results_hits/misses/entries/bytes) and snapshot
//	                   cache (snapshot_hits/misses/bytes) counters, plus the
//	                   per-worker registry: liveness state, breaker state,
//	                   heartbeat age, retries, requeues, utilization
//	GET  /healthz      liveness (503 while draining)
//
// Shutdown: SIGTERM (or SIGINT) starts a drain — new submissions get 503
// with a Retry-After header while in-flight jobs run to completion, then
// the listener closes (http.Server.Shutdown bounded by -drain-timeout).
//
// Determinism: a single-batch job's histogram is byte-identical to
// tqsim.RunTQSim at the same seed and options; multi-batch jobs merge
// batches run at deterministically derived seeds (serve.BatchSeed) into a
// histogram that is byte-identical whether the batches ran in one process
// or were sharded across any number of workers — including after a
// mid-job worker failure and re-dispatch. Sweep points obey the same rule
// at their own derived seeds, so a distributed sweep reassembles
// byte-identically to a local one. Every shard lease is bounded by
// -lease-timeout: a worker that accepts a lease and hangs is declared dead
// and its range re-dispatched instead of stalling the job.
//
// Fault tolerance: failed lease and probe calls retry with exponential
// backoff and jitter (-lease-retries); a worker answering 503 with
// Retry-After is retried after a capped wait before being excluded from
// the job; every shard response carries a sha256 checksum so corrupted
// payloads are requeued, never merged; and a per-worker circuit breaker
// (-breaker-threshold consecutive failures → open, half-open trial after
// -breaker-cooldown) keeps a flapping worker out of dispatch. See
// docs/architecture.md "Fault tolerance".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tqsim/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8651", "listen address")
		concurrent   = flag.Int("max-concurrent", 0, "jobs executing simultaneously (0 = GOMAXPROCS)")
		queue        = flag.Int("queue-depth", 16, "jobs allowed to wait for a slot before 429")
		budgetMB     = flag.Int64("memory-budget-mb", 0, "total planner-estimated state memory across running jobs, MiB (0 = unlimited)")
		maxShots     = flag.Int("max-shots", 0, "per-job shot cap (0 = default 4194304)")
		batchShots   = flag.Int("batch-shots", 0, "default shots per batch when jobs don't choose (0 = one batch)")
		worker       = flag.Bool("worker", false, "accept shard leases from a coordinator (POST /v1/shard)")
		sweepPoints  = flag.Int("max-sweep-points", 0, "per-sweep expanded grid cap (0 = default 4096)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "per-lease round-trip bound (incl. retries) before a worker is declared dead (0 = default 10m, negative = unlimited)")
		workers      = flag.String("workers", "", "comma-separated worker base URLs; shard multi-batch jobs across them")
		acceptJoins  = flag.Bool("accept-workers", false, "coordinate an elastic fleet: accept worker self-registration on POST /v1/workers")
		join         = flag.String("join", "", "coordinator base URL to register with and heartbeat to (worker role)")
		advertise    = flag.String("advertise", "", "base URL the coordinator should dial this worker at (default derived from -addr)")
		heartbeat    = flag.Duration("heartbeat-interval", 0, "heartbeat cadence to the -join coordinator (0 = default 1.5s)")
		leaseRetries = flag.Int("lease-retries", 0, "retry attempts per failed lease/probe call, exponential backoff + jitter (0 = default 2, negative = none)")
		breakerN     = flag.Int("breaker-threshold", 0, "consecutive lease failures that open a worker's circuit breaker (0 = default 5, negative = disabled)")
		breakerCool  = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before the half-open trial lease (0 = default 5s)")
		suspectAfter = flag.Duration("suspect-after", 0, "heartbeat age after which a joined worker gets no new leases (0 = default 5s)")
		deadAfter    = flag.Duration("dead-after", 0, "heartbeat age after which a joined worker is declared dead (0 = default 15s)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before closing connections")
		storeEntries = flag.Int("store-entries", 512, "content-addressed result store memory LRU cap (0 disables the store unless -store-dir is set)")
		storeDir     = flag.String("store-dir", "", "persist stored results to this directory so replays survive restarts (empty = memory-only)")
		storeMaxMB   = flag.Int64("store-max-mb", 1024, "size cap for -store-dir, MiB; oldest entries evicted beyond it")
		snapCacheMB  = flag.Int64("snapshot-cache-mb", 256, "cross-job ideal-prefix snapshot cache, MiB (0 disables; negative = unbounded)")
	)
	flag.Parse()

	var pool []string
	if *workers != "" {
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				pool = append(pool, u)
			}
		}
	}
	srv := serve.New(serve.Config{
		MaxConcurrent:     *concurrent,
		QueueDepth:        *queue,
		MemoryBudgetBytes: *budgetMB << 20,
		MaxShots:          *maxShots,
		DefaultBatchShots: *batchShots,
		MaxSweepPoints:    *sweepPoints,
		WorkerMode:        *worker,
		Workers:           pool,
		AcceptWorkers:     *acceptJoins,
		LeaseTimeout:      *leaseTimeout,
		LeaseRetries:      *leaseRetries,
		BreakerThreshold:  *breakerN,
		BreakerCooldown:   *breakerCool,
		SuspectAfter:      *suspectAfter,
		DeadAfter:         *deadAfter,
		StoreEntries:      *storeEntries,
		StoreDir:          *storeDir,
		StoreMaxBytes:     *storeMaxMB << 20,
		// 0 disables; a negative size survives the shift and means no cap.
		SnapshotCacheBytes: *snapCacheMB << 20,
	})
	if err := srv.StoreError(); err != nil {
		// A broken store-dir must fail loudly at startup: the operator asked
		// for persistent replays and silently running without them would
		// masquerade as cache misses forever.
		log.Fatalf("tqsimd: result store: %v", err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if *join != "" {
		self := *advertise
		if self == "" {
			// Derive a dialable base URL from the listen address; a bare
			// ":port" can only mean loopback from the coordinator's side.
			host := *addr
			if strings.HasPrefix(host, ":") {
				host = "127.0.0.1" + host
			}
			self = "http://" + host
		}
		go srv.JoinFleet(ctx, *join, self, *heartbeat, func(err error) {
			log.Printf("tqsimd heartbeat to %s failed: %v", *join, err)
		})
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		// Drain in two phases: first keep the listener open while in-flight
		// jobs finish, so late submissions bounce 503 (+Retry-After) rather
		// than connection-refused; then close the listener and remaining
		// idle connections.
		srv.BeginDrain()
		log.Printf("tqsimd draining (up to %v)", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.DrainWait(sctx); err != nil {
			log.Printf("tqsimd drain incomplete: %v", err)
		}
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("tqsimd shutdown incomplete: %v", err)
		}
	}()

	role := "single-process"
	switch {
	case *worker && *join != "":
		role = "worker, joined to " + *join
	case *worker:
		role = "worker"
	case *acceptJoins:
		role = fmt.Sprintf("elastic coordinator (%d static workers)", len(pool))
	case len(pool) > 0:
		role = fmt.Sprintf("coordinator over %d workers", len(pool))
	}
	fmt.Printf("tqsimd (%s) listening on %s\n", role, *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-shutdownDone
}
