package serve

// The distributed shard protocol. A coordinator (a Server constructed with
// Config.Workers) splits a job's batches into contiguous leases and posts
// each lease to a worker (a Server constructed with Config.WorkerMode) as a
// ShardRequest. The worker plans the job independently — planning is
// deterministic in the request, so coordinator and worker always agree on
// the batch arithmetic — runs batches [From, To) at their derived seeds
// (BatchSeed(job seed, i)), and returns one ShardBatch histogram per batch.
//
// Determinism contract: batch i's histogram is a pure function of the job
// request and i, so the coordinator's merge is byte-identical to the
// single-process run of the same job at the same seed regardless of how
// many workers participated, which worker ran which lease, or how a failed
// worker's leases were re-dispatched. Re-running a lease after a worker
// failure is safe for the same reason: the retry reproduces the identical
// per-batch histograms, and the coordinator records each batch index at
// most once.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// ShardRequest is the POST /v1/shard body: a complete work description plus
// the half-open unit-index range this worker is leasing. The unit is a
// batch index for jobs and a sweep-point index for sweeps; exactly one of
// Job or Sweep describes the work.
type ShardRequest struct {
	// Job is the full job request (batch leases). Stream is ignored; Shots,
	// Seed and BatchShots must match the coordinator's so both sides derive
	// the same batch count, sizes and seeds.
	Job JobRequest `json:"job"`
	// Sweep, when non-nil, makes this a sweep-point lease: the worker
	// expands the identical grid (expansion is deterministic in the spec)
	// and runs points [From, To).
	Sweep *SweepRequest `json:"sweep,omitempty"`
	// From and To bound the leased unit indices: From <= i < To.
	From int `json:"from"`
	To   int `json:"to"`
}

// ShardBatch is one executed unit (job batch or sweep point) inside a
// ShardResponse.
type ShardBatch struct {
	// Batch is the job-wide unit index (batch index or sweep-point index).
	Batch int `json:"batch"`
	// Seed echoes the unit's derived seed (BatchSeed for batches, the
	// sweep point seed for points).
	Seed uint64 `json:"seed"`
	// Outcomes is the number of sampled outcomes (tree leaves) in Counts.
	Outcomes int `json:"outcomes"`
	// Counts is the unit histogram, decimal basis index -> count.
	Counts map[string]int `json:"counts"`
	// Backend and Structure echo the engine and tree the unit ran on.
	Backend   string `json:"backend,omitempty"`
	Structure string `json:"structure,omitempty"`
	// Ops and PrefixHits carry the unit's work accounting, so a sweep's
	// coordinator-side totals match local execution. Job batches carry
	// them too; the job response does not report them.
	Ops        int64 `json:"ops,omitempty"`
	PrefixHits int64 `json:"prefix_hits,omitempty"`
	// Fidelity is the point's normalized fidelity, for sweep leases whose
	// spec requested it (nil otherwise).
	Fidelity *float64 `json:"fidelity,omitempty"`
	// ElapsedMS is the unit's wall-clock duration.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`

	// counts is the histogram by numeric key, set on batches that ran in
	// this process so merging them need not parse Counts back.
	counts map[uint64]int
}

// ShardResponse is the POST /v1/shard success body.
type ShardResponse struct {
	// Backend and Structure echo the engine and tree the batches ran on.
	Backend   string `json:"backend"`
	Structure string `json:"structure"`
	// Batches holds one entry per leased batch, in index order.
	Batches []ShardBatch `json:"batches"`
	// Checksum is ShardChecksum(Batches), computed by the worker. The
	// coordinator recomputes it over the decoded payload: a mismatch means
	// the response was corrupted in flight (or by a sick worker) and the
	// lease is treated as failed and requeued instead of merged.
	Checksum string `json:"checksum,omitempty"`
}

// ShardChecksum is the integrity hash both sides of the shard protocol
// compute over a response's batch payload: the sha256 of its canonical
// JSON encoding (encoding/json sorts map keys and round-trips float64
// exactly, so worker-side and coordinator-side encodings agree byte for
// byte).
func ShardChecksum(batches []ShardBatch) string {
	b, err := json.Marshal(batches)
	if err != nil {
		// Unmarshalable batches cannot occur for wire-decoded values; an
		// impossible hash forces the mismatch path rather than hiding it.
		return "unmarshalable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WorkerAnnounce is the POST /v1/workers body: a worker's join-or-heartbeat
// announcement. The same message serves both purposes — the coordinator
// registers unknown URLs, refreshes known ones, and revives dead ones.
type WorkerAnnounce struct {
	// URL is the worker's base URL as the coordinator should dial it.
	URL string `json:"url"`
	// Info is the worker's current capacity advertisement (the same payload
	// GET /v1/worker serves).
	Info WorkerInfo `json:"info"`
}

// WorkerInfo is the GET /v1/worker body — the capacity advertisement the
// coordinator's planner-driven placement consumes.
type WorkerInfo struct {
	// Worker reports whether this server accepts shard leases.
	Worker bool `json:"worker"`
	// MaxConcurrent is the worker's execution-slot count.
	MaxConcurrent int `json:"max_concurrent"`
	// MemoryBudgetBytes is the worker's admission budget (0 = unlimited).
	// The coordinator divides it by a job's planner peak estimate to bound
	// in-flight shards per worker, and skips workers a job can never fit on.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes"`
	// Draining reports a worker that is shutting down; the coordinator
	// treats it as unavailable.
	Draining bool `json:"draining"`
}
