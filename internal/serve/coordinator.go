package serve

// The coordinator side of the distributed shard protocol. A Server
// constructed with Config.Workers (or Config.AcceptWorkers) shards every
// multi-batch job across its worker registry: the job's batch range is cut
// into contiguous leases, leases are handed to workers up to each worker's
// planner-derived slot count, and per-batch histograms are merged as shards
// complete.
//
// Resilience: every lease gets bounded retries with exponential backoff and
// seeded jitter before it is requeued; a worker answering 503 with a
// Retry-After header is retried after a capped wait before being excluded
// from the job; responses carry a sha256 checksum over the batch payload so
// a corrupted response is treated as a worker failure (requeued) rather
// than merged; and each worker's circuit breaker holds it out of dispatch
// after consecutive failures until a half-open trial succeeds. Eligibility
// is recomputed every dispatch round from the live registry, so a worker
// that dies mid-job and later revives (heartbeat or probe), or a brand-new
// worker that joins mid-job, picks up queued leases without restarting the
// job. When no worker can take the work the coordinator finishes it
// locally.
//
// Determinism: batch i's histogram is a pure function of the job request
// and i (workers run batch i at BatchSeed(seed, i)), and the coordinator
// records each batch index at most once, so the merge is byte-identical to
// the single-process run whatever the worker count, lease placement,
// failure timing, fault pattern, or completion order.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tqsim/internal/planner"
)

// leasesPerSlot sets the lease granularity: about this many leases per
// worker slot, so fast workers pick up the slack of slow ones while each
// lease still amortizes one HTTP round-trip over several batches.
const leasesPerSlot = 4

// healthCheckTimeout bounds one /v1/worker probe attempt; a worker that
// cannot answer a capacity query this fast should not be leased trajectory
// work.
const healthCheckTimeout = 2 * time.Second

// probeAttempts bounds probe retries: a worker is declared unreachable only
// after this many attempts (backoff + jitter between them), so one dropped
// packet does not cost a healthy worker its place in the job.
const probeAttempts = 2

// refreshPool re-probes every worker not currently alive — the recovery
// half of the requeue-on-failure loop. Probes of the same worker are spaced
// by Config.ProbeBackoff: refresh runs on the job submission path (and
// asynchronously after mid-job failures), so without the spacing a
// blackholed worker would add healthCheckTimeout of latency to every job
// until it recovers.
func (s *Server) refreshPool(ctx context.Context) {
	if s.pool == nil {
		return
	}
	now := time.Now()
	var wg sync.WaitGroup
	for _, w := range s.pool.snapshot() {
		w.mu.Lock()
		skip := w.stateLocked(s.cfg, now) == workerAlive || now.Sub(w.lastProbe) < s.cfg.ProbeBackoff
		if !skip {
			w.lastProbe = now
		}
		w.mu.Unlock()
		if skip {
			continue
		}
		wg.Add(1)
		go func(w *workerClient) {
			defer wg.Done()
			s.probe(ctx, w)
		}(w)
	}
	wg.Wait()
}

// probe health-checks one worker with bounded retries.
func (s *Server) probe(ctx context.Context, w *workerClient) bool {
	for a := 0; a < probeAttempts; a++ {
		if a > 0 {
			if !sleepCtx(ctx, s.backoff(a-1)) {
				return false
			}
		}
		if s.check(ctx, w) {
			return true
		}
	}
	return false
}

// check runs one probe attempt against /v1/worker, updating liveness and
// the capacity advertisement. A probe that finds a dead worker answering
// again is a revival: the registry notifies in-flight dispatch loops so the
// worker rejoins mid-job.
func (s *Server) check(ctx context.Context, w *workerClient) bool {
	cctx, cancel := context.WithTimeout(ctx, healthCheckTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, w.base+"/v1/worker", nil)
	if err != nil {
		return false
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		w.markDead()
		return false
	}
	defer resp.Body.Close()
	var info WorkerInfo
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&info) != nil {
		w.markDead()
		return false
	}
	ok := info.Worker && !info.Draining
	w.mu.Lock()
	w.info = info
	wasDead := w.status == workerDead
	if ok {
		w.status = workerAlive
		w.lastSeen = time.Now()
		if wasDead {
			w.revivals++
		}
	} else {
		w.status = workerDead
	}
	w.mu.Unlock()
	if ok && wasDead {
		s.stats[statWorkersRevived].Add(1)
		s.pool.notify()
	}
	return ok
}

// eligibleWorkers computes the set of workers dispatch may lease to right
// now: alive (liveness state machine), not excluded from this job, not
// draining, and — planner-driven placement — able to fit at least one copy
// of the work's peak estimate, with the slot count bounding concurrent
// leases. Recomputed every dispatch round so membership changes feed
// in-flight jobs.
func (s *Server) eligibleWorkers(estPeak int64, excluded map[*workerClient]bool) map[*workerClient]int {
	out := make(map[*workerClient]int)
	for _, w := range s.pool.snapshot() {
		if excluded[w] || w.state(s.cfg) != workerAlive {
			continue
		}
		info := w.snapshotInfo()
		if !info.Worker || info.Draining {
			continue
		}
		if k := planner.WorkerSlots(estPeak, info.MemoryBudgetBytes, info.MaxConcurrent); k > 0 {
			out[w] = k
		}
	}
	return out
}

// shardError is a failed lease attempt. status 0 is a transport error
// (worker unreachable mid-lease, or a corrupt payload); otherwise the HTTP
// status the worker answered. retryAfter carries the worker's Retry-After
// hint on 503s.
type shardError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

// postTo posts v as a JSON body: the fleet's one client-side request shape
// (leases to workers, announcements to coordinators).
func postTo(ctx context.Context, hc *http.Client, url string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return hc.Do(req)
}

// shard posts one lease attempt and decodes the response.
func (w *workerClient) shard(ctx context.Context, req *ShardRequest) (*ShardResponse, *shardError) {
	resp, err := postTo(ctx, w.hc, w.base+"/v1/shard", req)
	if err != nil {
		return nil, &shardError{msg: err.Error()}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, &shardError{msg: "read: " + err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		serr := &shardError{status: resp.StatusCode, msg: strings.TrimSpace(string(raw))}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			serr.retryAfter = time.Duration(secs) * time.Second
		}
		return nil, serr
	}
	var out ShardResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, &shardError{msg: "decode: " + err.Error()}
	}
	return &out, nil
}

// leaseWithRetry runs one lease against one worker with bounded retries:
// transport errors, 5xx answers and checksum mismatches back off
// exponentially (with seeded jitter) between attempts; a 503 carrying
// Retry-After waits the worker's own hint, capped by Config.RetryAfterCap,
// before retrying — only after the attempts are exhausted does the caller
// exclude the worker from the job. 413 and other 4xx answers never retry:
// the request cannot succeed by repetition.
func (s *Server) leaseWithRetry(ctx context.Context, w *workerClient, req *ShardRequest) (*ShardResponse, *shardError) {
	attempts := 1 + s.cfg.LeaseRetries
	if s.cfg.LeaseRetries < 0 {
		attempts = 1
	}
	var last *shardError
	for a := 0; a < attempts; a++ {
		if a > 0 {
			s.stats[statLeaseRetries].Add(1)
			w.mu.Lock()
			w.retries++
			w.mu.Unlock()
		}
		resp, serr := w.shard(ctx, req)
		if serr == nil {
			if sum := ShardChecksum(resp.Batches); resp.Checksum != "" && resp.Checksum != sum {
				// A payload that parses but does not hash to its checksum is
				// silent corruption: treat the worker as failed, never merge.
				s.stats[statChecksumFails].Add(1)
				serr = &shardError{msg: fmt.Sprintf(
					"checksum mismatch: worker reported %.8s…, payload hashes to %.8s…", resp.Checksum, sum)}
			} else {
				w.noteSuccess()
				return resp, nil
			}
		}
		last = serr
		w.noteFailure(s.cfg)
		if ctx.Err() != nil {
			return nil, last
		}
		switch {
		case serr.status == http.StatusServiceUnavailable:
			// Busy worker. With a Retry-After hint, honor it (capped) and
			// retry; without one, hand the 503 straight back so the caller
			// excludes the worker from this job.
			if serr.retryAfter <= 0 || a == attempts-1 {
				return nil, last
			}
			wait := serr.retryAfter
			if wait > s.cfg.RetryAfterCap {
				wait = s.cfg.RetryAfterCap
			}
			s.stats[statRetryAfterWaits].Add(1)
			if !sleepCtx(ctx, wait) {
				return nil, last
			}
		case serr.status >= 400 && serr.status < 500:
			return nil, last
		default:
			// Transport error, 5xx, or corruption: back off and retry.
			if a == attempts-1 {
				return nil, last
			}
			if !sleepCtx(ctx, s.backoff(a)) {
				return nil, last
			}
		}
	}
	return nil, last
}

// backoff returns the jittered exponential delay before retry `attempt`:
// uniform in [d/2, 3d/2) around d = RetryBackoff << attempt. The jitter
// stream is seeded (Config.JitterSeed) so fault-injection runs replay the
// same schedule.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBackoff << uint(attempt)
	if d <= 0 {
		return 0
	}
	return s.pool.jitterAround(d)
}

// sleepCtx sleeps d or until ctx cancels; reports whether the full sleep
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// lease is a contiguous block of unit indices dispatched as one shard.
type lease struct{ from, to int }

// runLeased shards the work's units across the worker registry, handing
// every unit's ShardBatch to record (the pipeline's index-once merge, which
// drops a unit that somehow arrives twice). Eligibility is recomputed from
// the live registry at every dispatch round, so a worker that joins or
// revives mid-job starts receiving leases without a restart; the registry's
// change broadcast wakes the loop the moment that happens. Every lease round
// trip (including its retries) is bounded by Config.LeaseTimeout: a worker
// that accepts a lease and then hangs is marked dead on expiry and its lease
// requeues, instead of stalling the work forever.
func (s *Server) runLeased(ctx context.Context, wk work, record func(*ShardBatch) *httpError) *httpError {
	n := wk.units()
	s.refreshPool(ctx)

	// excluded holds workers that answered 503 (still busy after the
	// Retry-After retries) or 413 (the work can never fit) for this job:
	// healthy pool members that this particular work should stop courting.
	// Death is deliberately NOT job-scoped exclusion — a worker that dies
	// and revives mid-job re-enters through eligibleWorkers.
	excluded := make(map[*workerClient]bool)

	// runLocal finishes leases in-process. Local execution re-enters the
	// coordinator's own admission budget, so a degraded pool degrades to
	// single-process service without overcommitting the coordinator.
	runLocal := func(ls []lease) *httpError {
		if herr := s.reserveMemory(wk.peak()); herr != nil {
			return herr
		}
		defer s.releaseMemory(wk.peak())
		for _, l := range ls {
			if herr := wk.run(ctx, l.from, l.to, record); herr != nil {
				return herr
			}
		}
		return nil
	}

	// Cut the unit range into leases, sized from the slots available now
	// (later joiners share the same lease size — granularity, not
	// assignment, is fixed up front).
	totalSlots := 0
	for _, k := range s.eligibleWorkers(wk.peak(), excluded) {
		totalSlots += k
	}
	chunk := 1
	if totalSlots > 0 {
		chunk = (n + leasesPerSlot*totalSlots - 1) / (leasesPerSlot * totalSlots)
	}
	var queue []lease
	for i := 0; i < n; i += chunk {
		end := i + chunk
		if end > n {
			end = n
		}
		queue = append(queue, lease{i, end})
	}

	// Shard calls run on a child context so an aborted job cancels its
	// in-flight leases (the workers' executors stop, not just the HTTP
	// calls).
	sctx, cancelShards := context.WithCancel(ctx)
	defer cancelShards()

	type doneMsg struct {
		w    *workerClient
		l    lease
		resp *ShardResponse
		err  *shardError
	}
	// Buffered to the lease count: a lease is queued, in flight or merged,
	// so at most that many results are ever outstanding and a sender never
	// blocks — after an abort (cancelShards stops the work) the in-flight
	// goroutines deliver into the buffer and exit with nobody receiving.
	done := make(chan doneMsg, len(queue))
	inflight := make(map[*workerClient]int)
	inflightN := 0

	for {
		// Subscribe before computing eligibility: a join or revival between
		// the computation and the wait below closes this channel and the
		// select falls through immediately.
		changed := s.pool.subscribe()

		// Hand queued leases to the least-loaded free workers whose
		// breakers admit a lease (a half-open breaker admits exactly one
		// trial).
		denied := make(map[*workerClient]bool)
		for len(queue) > 0 {
			elig := s.eligibleWorkers(wk.peak(), excluded)
			var pick *workerClient
			for w, k := range elig {
				if denied[w] || inflight[w] >= k {
					continue
				}
				if pick == nil || inflight[w] < inflight[pick] {
					pick = w
				}
			}
			if pick == nil {
				break
			}
			if !pick.breakerTryAcquire(s.cfg) {
				denied[pick] = true
				continue
			}
			l := queue[0]
			queue = queue[1:]
			inflight[pick]++
			inflightN++
			s.stats[statShardsDispatched].Add(1)
			pick.mu.Lock()
			pick.dispatched++
			pick.inflight++
			pick.mu.Unlock()
			go func(w *workerClient, l lease) {
				// Bound the lease: a hung worker (accepted the lease, never
				// answers, connection stays open) turns into a transport
				// error at the deadline and takes the dead-worker path
				// below. The job ctx still cancels leases early; the
				// timeout only adds an upper bound over all retry attempts.
				lctx := sctx
				if s.cfg.LeaseTimeout > 0 {
					var cancel context.CancelFunc
					lctx, cancel = context.WithTimeout(sctx, s.cfg.LeaseTimeout)
					defer cancel()
				}
				resp, serr := s.leaseWithRetry(lctx, w, wk.lease(l.from, l.to))
				done <- doneMsg{w: w, l: l, resp: resp, err: serr}
			}(pick, l)
		}
		if inflightN == 0 {
			if len(queue) == 0 {
				break
			}
			// No worker can take the remaining leases right now: finish
			// them locally rather than waiting for a membership change that
			// may never come.
			if herr := runLocal(queue); herr != nil {
				return herr
			}
			break
		}

		var d doneMsg
		select {
		case d = <-done:
		case <-changed:
			// Membership changed (join or revival): recompute eligibility
			// and offer the newcomer queued leases.
			continue
		}
		inflightN--
		inflight[d.w]--
		d.w.mu.Lock()
		d.w.inflight--
		d.w.mu.Unlock()
		if d.err != nil {
			if ctx.Err() != nil {
				return errf(statusClientClosedRequest, "job cancelled: %v", ctx.Err())
			}
			s.stats[statShardsRequeued].Add(1)
			queue = append(queue, d.l)
			d.w.mu.Lock()
			d.w.failedLeases++
			d.w.requeues++
			d.w.mu.Unlock()
			switch {
			case d.err.status == http.StatusServiceUnavailable || d.err.status == http.StatusRequestEntityTooLarge:
				// The worker is healthy but cannot take this work (still at
				// capacity after the Retry-After retries, or it exceeds its
				// budget): stop leasing this work to it, leave it in the
				// pool.
				excluded[d.w] = true
			case d.err.status >= 400 && d.err.status < 500:
				// The worker rejected the work itself; re-dispatching the
				// identical request cannot succeed anywhere.
				return errf(http.StatusBadGateway,
					"worker %s rejected lease [%d,%d): %s", d.w.base, d.l.from, d.l.to, d.err.msg)
			default:
				// Transport error (including a lease timeout), 5xx, or a
				// corrupt payload after all retries: the worker is dead for
				// now. Its unacked lease is already back in the queue; a
				// heartbeat or probe revival re-admits it — including into
				// this very job.
				s.stats[statWorkerFailures].Add(1)
				d.w.markDead()
				// Kick an asynchronous re-probe (spaced by ProbeBackoff) so
				// a static worker that merely blipped can rejoin mid-job
				// even without heartbeats.
				go s.refreshPool(sctx)
			}
			continue
		}
		for i := range d.resp.Batches {
			if herr := record(&d.resp.Batches[i]); herr != nil {
				return herr
			}
		}
	}

	return nil
}
