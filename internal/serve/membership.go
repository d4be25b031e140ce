package serve

// Elastic fleet membership. The coordinator keeps a registry of workers —
// seeded from the static Config.Workers list and grown by self-registration
// (POST /v1/workers) — with a per-worker liveness state machine:
//
//	alive ──(heartbeat stale > SuspectAfter)──▶ suspect
//	suspect ──(stale > DeadAfter, or a lease/probe failure)──▶ dead
//	dead ──(heartbeat or successful probe)──▶ alive   (a "revival")
//
// Liveness is evaluated lazily from timestamps, so the registry needs no
// background goroutine: a worker's effective state is computed at each
// dispatch round from its base status plus the age of its last sign of
// life (heartbeat, successful probe, or completed lease). Workers that
// joined by announcing themselves are subject to the age rules; workers
// from the static list that never heartbeat keep the original probe-based
// semantics so a pool of plain `tqsimd -worker` processes behaves as
// before.
//
// Orthogonal to liveness, each worker carries a circuit breaker driven by
// lease outcomes: BreakerThreshold consecutive failures open it (no leases
// dispatched), after BreakerCooldown it half-opens and admits a single
// trial lease whose success closes it again. Liveness answers "is the
// process there"; the breaker answers "is it returning good results" — a
// worker that heartbeats cheerfully while corrupting every payload is held
// out by the breaker alone.

import (
	"context"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"tqsim/internal/rng"
)

// Worker liveness states, as reported in /v1/stats.
const (
	workerAlive   = "alive"
	workerSuspect = "suspect"
	workerDead    = "dead"
)

// Circuit-breaker states, as reported in /v1/stats.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// workerClient is the coordinator's view of one fleet member.
type workerClient struct {
	base string
	hc   *http.Client

	mu sync.Mutex
	// Liveness. status is the base state (alive/dead); suspect and
	// age-based death are derived from lastSeen at read time. elastic marks
	// workers that have announced themselves at least once — only they are
	// subject to heartbeat-age transitions.
	status    string
	elastic   bool
	lastSeen  time.Time // last heartbeat, successful probe, or lease success
	lastProbe time.Time
	info      WorkerInfo
	revivals  uint64

	// Circuit breaker.
	breaker       string
	consecFails   int
	breakerOpened time.Time
	halfOpenTrial bool

	// Per-worker counters surfaced in /v1/stats.
	dispatched, completed, failedLeases, retries, requeues uint64
	inflight                                               int
}

// registry is the coordinator's elastic worker set.
type registry struct {
	cfg Config

	mu      sync.Mutex
	workers []*workerClient
	byURL   map[string]*workerClient
	// changed is a broadcast channel: closed and replaced whenever a worker
	// joins or revives, so in-flight dispatch loops wake up and offer the
	// newcomer work mid-job.
	changed chan struct{}

	// jit is the seeded backoff-jitter stream (Config.JitterSeed), so a
	// fault-injection run replays the identical retry schedule.
	jmu sync.Mutex
	jit *rng.RNG
}

func newRegistry(cfg Config) *registry {
	r := &registry{
		cfg:     cfg,
		byURL:   make(map[string]*workerClient),
		changed: make(chan struct{}),
		jit:     rng.New(cfg.JitterSeed),
	}
	for _, u := range cfg.Workers {
		r.addLocked(strings.TrimRight(u, "/"))
	}
	return r
}

// jitterAround draws a duration uniform in [d/2, 3d/2).
func (r *registry) jitterAround(d time.Duration) time.Duration {
	r.jmu.Lock()
	defer r.jmu.Unlock()
	return d/2 + time.Duration(r.jit.Uint64()%uint64(d))
}

func (r *registry) addLocked(base string) *workerClient {
	if w, ok := r.byURL[base]; ok {
		return w
	}
	w := &workerClient{
		base: base,
		// Unproven until the first probe or heartbeat: suspect gets no
		// leases but is probed by refreshPool at the next job.
		status:  workerSuspect,
		breaker: breakerClosed,
		// No client timeout: a shard lease legitimately runs for as long as
		// its batches take; cancellation comes from the job's request
		// context (plus Config.LeaseTimeout).
		hc: &http.Client{Transport: r.cfg.Transport},
	}
	r.workers = append(r.workers, w)
	r.byURL[base] = w
	return w
}

// subscribe returns a channel closed at the next membership change. Callers
// must subscribe before computing eligibility so a join between the
// computation and the wait is not missed.
func (r *registry) subscribe() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.changed
}

func (r *registry) notifyLocked() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// notify broadcasts a membership change to all subscribed dispatch loops.
func (r *registry) notify() {
	r.mu.Lock()
	r.notifyLocked()
	r.mu.Unlock()
}

// announce handles one join-or-heartbeat: it registers the worker if new,
// refreshes its capacity advertisement and last-seen time, and revives it
// if it was dead. Returns (joined, revived).
func (r *registry) announce(a *WorkerAnnounce) (bool, bool) {
	base := strings.TrimRight(a.URL, "/")
	r.mu.Lock()
	defer r.mu.Unlock()
	w, known := r.byURL[base]
	if !known {
		w = r.addLocked(base)
	}
	w.mu.Lock()
	w.elastic = true
	w.info = a.Info
	w.lastSeen = time.Now()
	revived := w.status == workerDead && known
	w.status = workerAlive
	if revived {
		w.revivals++
	}
	w.mu.Unlock()
	if !known || revived {
		r.notifyLocked()
	}
	return !known, revived
}

func (r *registry) snapshot() []*workerClient {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*workerClient(nil), r.workers...)
}

// state computes the worker's effective liveness state.
func (w *workerClient) state(cfg Config) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stateLocked(cfg, time.Now())
}

func (w *workerClient) stateLocked(cfg Config, now time.Time) string {
	if w.status == workerDead {
		return workerDead
	}
	if !w.elastic {
		// Static workers never heartbeat; their liveness comes from probes
		// and lease outcomes alone.
		return w.status
	}
	age := now.Sub(w.lastSeen)
	switch {
	case age > cfg.DeadAfter:
		return workerDead
	case age > cfg.SuspectAfter:
		return workerSuspect
	default:
		return w.status
	}
}

// markDead records a lease or probe failure severe enough to pull the
// worker from dispatch until it heartbeats or answers a probe again.
func (w *workerClient) markDead() {
	w.mu.Lock()
	w.status = workerDead
	w.mu.Unlock()
}

func (w *workerClient) snapshotInfo() WorkerInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.info
}

// --- circuit breaker -------------------------------------------------------

// breakerTryAcquire reports whether the breaker admits a lease right now,
// atomically claiming the half-open trial slot when it does. Threshold <= 0
// disables the breaker.
func (w *workerClient) breakerTryAcquire(cfg Config) bool {
	if cfg.BreakerThreshold <= 0 {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch w.breaker {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(w.breakerOpened) < cfg.BreakerCooldown {
			return false
		}
		w.breaker = breakerHalfOpen
		w.halfOpenTrial = true
		return true
	default: // half-open
		if w.halfOpenTrial {
			return false
		}
		w.halfOpenTrial = true
		return true
	}
}

// noteSuccess records a successful lease: the breaker closes, the failure
// streak resets, and the worker counts as recently seen.
func (w *workerClient) noteSuccess() {
	w.mu.Lock()
	w.breaker = breakerClosed
	w.consecFails = 0
	w.halfOpenTrial = false
	w.lastSeen = time.Now()
	w.completed++
	w.mu.Unlock()
}

// noteFailure records one failed lease attempt; at the threshold (or on a
// failed half-open trial) the breaker opens.
func (w *workerClient) noteFailure(cfg Config) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.consecFails++
	if cfg.BreakerThreshold <= 0 {
		return
	}
	if w.breaker == breakerHalfOpen || w.consecFails >= cfg.BreakerThreshold {
		w.breaker = breakerOpen
		w.breakerOpened = time.Now()
		w.halfOpenTrial = false
	}
}

// --- coordinator endpoints -------------------------------------------------

// handleWorkerJoin serves POST /v1/workers: worker self-registration and
// heartbeats. The same request both joins and refreshes — a worker simply
// announces itself on a timer and the registry derives join/heartbeat/
// revival from its current state.
func (s *Server) handleWorkerJoin(w http.ResponseWriter, r *http.Request) {
	if s.pool == nil {
		writeError(w, http.StatusNotFound,
			"not a coordinator: start tqsimd with -workers or -accept-workers to form a fleet")
		return
	}
	var a WorkerAnnounce
	if herr := decodeBody(w, r, &a); herr != nil {
		s.fail(w, herr)
		return
	}
	u, err := url.Parse(a.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeError(w, http.StatusBadRequest, "announce url must be an absolute http(s) base URL")
		return
	}
	joined, revived := s.pool.announce(&a)
	if joined {
		s.stats[statWorkersJoined].Add(1)
	}
	if revived {
		s.stats[statWorkersRevived].Add(1)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": true,
		// Heartbeat pacing hint: comfortably inside the suspect window.
		"heartbeat_interval_ms": s.cfg.SuspectAfter.Milliseconds() / 3,
	})
}

// --- worker-side heartbeat loop --------------------------------------------

// Announce posts one join/heartbeat for this server to a coordinator,
// advertising the given base URL. Safe to call on any schedule; the
// coordinator treats every announce as both registration and heartbeat.
func (s *Server) Announce(ctx context.Context, coordinator, advertise string) error {
	resp, err := postTo(ctx, http.DefaultClient, strings.TrimRight(coordinator, "/")+"/v1/workers",
		&WorkerAnnounce{URL: advertise, Info: s.workerInfo()})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errf(resp.StatusCode, "announce rejected: %s", resp.Status)
	}
	return nil
}

// JoinFleet announces this worker to a coordinator immediately and then
// heartbeats every interval until ctx is cancelled. Announce failures are
// retried at the same cadence — a coordinator restart loses its registry,
// and the steady heartbeat re-registers the worker automatically. onErr,
// when non-nil, observes announce errors (cmd/tqsimd logs them).
func (s *Server) JoinFleet(ctx context.Context, coordinator, advertise string, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = defaultHeartbeatInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if err := s.Announce(ctx, coordinator, advertise); err != nil && onErr != nil && ctx.Err() == nil {
			onErr(err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// defaultHeartbeatInterval paces JoinFleet when the caller does not choose:
// one third of the default suspect window.
const defaultHeartbeatInterval = 1500 * time.Millisecond

// workerInfo builds this server's capacity advertisement.
func (s *Server) workerInfo() WorkerInfo {
	return WorkerInfo{
		Worker:            s.cfg.WorkerMode,
		MaxConcurrent:     s.cfg.MaxConcurrent,
		MemoryBudgetBytes: s.cfg.MemoryBudgetBytes,
		Draining:          s.Draining(),
	}
}

// WorkerStat is one registry entry in the /v1/stats payload.
type WorkerStat struct {
	URL   string `json:"url"`
	State string `json:"state"` // alive | suspect | dead
	// Elastic marks workers that self-registered (subject to heartbeat-age
	// liveness) as opposed to the static -workers list.
	Elastic bool `json:"elastic,omitempty"`
	// HeartbeatAgeMS is the age of the last sign of life (heartbeat,
	// successful probe or lease); -1 before the first one.
	HeartbeatAgeMS float64 `json:"heartbeat_age_ms"`
	Breaker        string  `json:"breaker"` // closed | open | half-open
	ConsecFails    int     `json:"consecutive_failures,omitempty"`
	Revivals       uint64  `json:"revivals,omitempty"`
	// Lease accounting: dispatched/completed/failed leases, retry attempts,
	// requeues attributed to this worker, and current in-flight leases.
	LeasesDispatched uint64 `json:"leases_dispatched"`
	LeasesCompleted  uint64 `json:"leases_completed"`
	LeasesFailed     uint64 `json:"leases_failed"`
	Retries          uint64 `json:"retries"`
	Requeues         uint64 `json:"requeues"`
	InFlight         int    `json:"in_flight"`
	// Utilization is in-flight leases over the worker's advertised
	// execution slots (0 when unknown).
	Utilization float64 `json:"utilization"`
}

// workerStats renders the registry for /v1/stats.
func (s *Server) workerStats() []WorkerStat {
	var out []WorkerStat
	now := time.Now()
	for _, w := range s.pool.snapshot() {
		w.mu.Lock()
		ws := WorkerStat{
			URL:              w.base,
			State:            w.stateLocked(s.cfg, now),
			Elastic:          w.elastic,
			HeartbeatAgeMS:   -1,
			Breaker:          w.breaker,
			ConsecFails:      w.consecFails,
			Revivals:         w.revivals,
			LeasesDispatched: w.dispatched,
			LeasesCompleted:  w.completed,
			LeasesFailed:     w.failedLeases,
			Retries:          w.retries,
			Requeues:         w.requeues,
			InFlight:         w.inflight,
		}
		if !w.lastSeen.IsZero() {
			ws.HeartbeatAgeMS = millis(now.Sub(w.lastSeen))
		}
		if slots := w.info.MaxConcurrent; slots > 0 {
			ws.Utilization = float64(w.inflight) / float64(slots)
		}
		w.mu.Unlock()
		out = append(out, ws)
	}
	return out
}
