package serve

// The sweep service layer: POST /v1/sweeps accepts a grid spec (circuit ×
// noise × shots × partitioner × repeats), admission-controls it with the
// planner estimates the sweep engine computed during Prepare, and executes
// it with the engine's cross-point reuse — streaming one NDJSON line per
// point by default. A coordinator shards point ranges across its worker
// pool through the same pipeline and lease machinery as job batches; point
// i's histogram is a pure function of (spec, i) at the derived seed
// rng.SeedAt(seed, i), so the reassembled sweep is byte-identical to a
// single-process run whatever the worker count, lease placement or failure
// timing.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sort"

	"tqsim"
	"tqsim/internal/sweep"
)

// SweepRequest is the POST /v1/sweeps body: the sweep spec (see
// internal/sweep.Spec for the axis fields) plus service options.
type SweepRequest struct {
	sweep.Spec
	// Stream selects NDJSON per-point streaming (the default); set false
	// for one JSON body after the sweep completes.
	Stream *bool `json:"stream,omitempty"`
}

// SweepPointJSON is one executed point on the wire.
type SweepPointJSON struct {
	Index      int            `json:"index"`
	Circuit    string         `json:"circuit"`
	Noise      string         `json:"noise"`
	Shots      int            `json:"shots"`
	Partition  string         `json:"partition,omitempty"`
	Rep        int            `json:"rep"`
	Seed       uint64         `json:"seed"`
	Backend    string         `json:"backend,omitempty"`
	Structure  string         `json:"structure,omitempty"`
	Outcomes   int            `json:"outcomes"`
	Counts     map[string]int `json:"counts"`
	Ops        int64          `json:"ops,omitempty"`
	PrefixHits int64          `json:"prefix_hits,omitempty"`
	Fidelity   *float64       `json:"fidelity,omitempty"`
	ElapsedMS  float64        `json:"elapsed_ms,omitempty"`
}

// SweepResponse is the non-streaming POST /v1/sweeps body.
type SweepResponse struct {
	Points      int              `json:"points"`
	Results     []SweepPointJSON `json:"results"`
	Ops         int64            `json:"ops"`
	PrefixHits  int64            `json:"prefix_hits"`
	ElapsedMS   float64          `json:"elapsed_ms"`
	Distributed bool             `json:"distributed,omitempty"`
}

// sweepLine is one NDJSON record of a streaming sweep. Point lines arrive
// in completion order (nondeterministic at Concurrency > 1 or when
// distributed); each line's content and the set of lines are deterministic.
// The embedded pointer keeps header/done/error lines free of zero-valued
// point fields (a nil embedded pointer contributes nothing to the JSON).
type sweepLine struct {
	Type string `json:"type"` // "sweep" | "point" | "done" | "error"
	*SweepPointJSON
	Points          int     `json:"points,omitempty"`
	TotalOps        int64   `json:"total_ops,omitempty"`
	TotalPrefixHits int64   `json:"total_prefix_hits,omitempty"`
	TotalElapsedMS  float64 `json:"total_elapsed_ms,omitempty"`
	Distributed     bool    `json:"distributed,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// sweepJob is a validated, fully planned sweep ready to execute.
type sweepJob struct {
	prep    *tqsim.PreparedSweep
	wire    *SweepRequest // spec with host-derived planner inputs pinned
	estPeak int64
	stream  bool

	// The response under construction: record folds points in, finish
	// renders it.
	results         []SweepPointJSON
	ops, prefixHits int64
}

// prepareSweep validates and plans a sweep request. The two planner inputs
// that default from host/server state — memory budget and worker count —
// are pinned into the spec first, so a worker re-preparing the wire spec
// resolves every point's "auto" decision to the same engine the
// coordinator did (the same pinning the job path does).
func (s *Server) prepareSweep(req *SweepRequest) (*sweepJob, *httpError) {
	if req.Spec.MemoryBudgetBytes == 0 {
		req.Spec.MemoryBudgetBytes = s.cfg.MemoryBudgetBytes
	}
	if req.Spec.Parallelism == 0 {
		req.Spec.Parallelism = runtime.GOMAXPROCS(0)
	}
	for _, n := range req.Spec.Shots {
		if n > s.cfg.MaxShots {
			return nil, errf(http.StatusRequestEntityTooLarge,
				"shots %d exceeds the server limit %d", n, s.cfg.MaxShots)
		}
	}
	// The grid size is a product of axis lengths: checked before Prepare,
	// which plans every distinct cell.
	if n := req.Spec.GridSize(); n > s.cfg.MaxSweepPoints {
		return nil, errf(http.StatusRequestEntityTooLarge,
			"sweep expands to %d points, above the server limit %d", n, s.cfg.MaxSweepPoints)
	}
	prep, err := tqsim.PrepareSweep(&req.Spec)
	if err != nil {
		var pe *sweep.PlanError
		if errors.As(err, &pe) {
			s.stats[statMemory].Add(1)
			return nil, errf(http.StatusRequestEntityTooLarge, "planner: %v", err)
		}
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	if n := prep.MaxOutcomes(); n > s.cfg.MaxShots {
		return nil, errf(http.StatusRequestEntityTooLarge,
			"a sweep point samples %d outcomes, above the server limit %d", n, s.cfg.MaxShots)
	}

	// Admission: one point's peak times the in-process point concurrency
	// (points beyond it never run simultaneously here; distributed points
	// reserve on the workers that run them). Placement divides worker
	// budgets by the same scaled estimate — conservative: each lease may
	// run up to Concurrency points at once.
	conc := min(max(prep.Spec().Concurrency, 1), prep.NumPoints())
	sj := &sweepJob{
		prep:    prep,
		estPeak: prep.MaxEstPeakBytes() * int64(conc),
		stream:  req.Stream == nil || *req.Stream,
	}
	// Points take their spines from the cross-job cache (when enabled, else
	// the sweep's own): spine states an earlier job or sweep computed over a
	// shared gate prefix are adopted instead of rebuilt.
	prep.UseSnapshotCache(s.snapCache)
	wire := SweepRequest{Spec: *prep.Spec()}
	stream := false
	wire.Stream = &stream
	sj.wire = &wire
	return sj, nil
}

// preparedSweepForLease returns the prepared sweep for a shard lease,
// served from the worker's small LRU when an earlier lease of the same
// sweep already prepared it. A coordinator cuts one sweep into several
// leases per worker; without the cache every lease would re-expand the
// grid, re-run every planner decision, and — with the snapshot cache off —
// rebuild the spines the previous lease already paid for in the sweep's own
// cache. Safe to share: a Prepared is immutable after Prepare apart from
// sync.Once-guarded ideal distributions and its concurrency-safe spine
// cache, so concurrent leases may run ranges of one instance — each through
// its own copy of the sweepJob around it.
func (s *Server) preparedSweepForLease(req *SweepRequest) (*sweepJob, *httpError) {
	// Key by the pinned wire spec: the coordinator sends every lease of a
	// sweep with the identical (already-pinned) spec, so re-pinning here is
	// a no-op and the canonical JSON is stable across leases.
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "sweep lease: %v", err)
	}
	key := string(raw)
	s.sweepMu.Lock()
	sj, ok := s.sweepPreps.Get(key)
	s.sweepMu.Unlock()
	if !ok {
		var herr *httpError
		if sj, herr = s.prepareSweep(req); herr != nil {
			return nil, herr
		}
		s.sweepMu.Lock()
		s.sweepPreps.Add(key, sj, 0)
		s.sweepMu.Unlock()
	}
	own := *sj
	return &own, nil
}

func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, func() (*submission, *httpError) {
		var req SweepRequest
		if herr := decodeBody(w, r, &req); herr != nil {
			return nil, herr
		}
		sj, herr := s.prepareSweep(&req)
		if herr != nil {
			return nil, herr
		}
		return whole(sj, sj.stream), nil
	})
}

// The work implementation: a sweep's units are its grid points.

func (sj *sweepJob) units() int                      { return sj.prep.NumPoints() }
func (sj *sweepJob) peak() int64                     { return sj.estPeak }
func (sj *sweepJob) counters() (unit, completed int) { return statSweepPoints, statSweepsCompleted }

func (sj *sweepJob) lease(from, to int) *ShardRequest {
	return &ShardRequest{Sweep: sj.wire, From: from, To: to}
}

// run executes points [from, to) in-process through the prepared sweep,
// emitting each point in wire form. Emit failures keep their own status (a
// vanished streaming client books as canceled, not failed).
func (sj *sweepJob) run(ctx context.Context, from, to int, emit func(*ShardBatch) *httpError) *httpError {
	_, err := tqsim.RunPreparedSweep(ctx, sj.prep, from, to, func(pr *tqsim.SweepPointResult) error {
		sb := &ShardBatch{
			Batch:      pr.Index,
			Seed:       pr.Seed,
			Outcomes:   pr.Outcomes,
			Counts:     countsJSON(pr.Counts),
			Backend:    pr.Backend,
			Structure:  pr.Structure,
			Ops:        pr.GateApplications,
			PrefixHits: pr.PrefixReuseHits,
			ElapsedMS:  millis(pr.Elapsed),
		}
		if pr.HasFidelity {
			f := pr.Fidelity
			sb.Fidelity = &f
		}
		if herr := emit(sb); herr != nil {
			return herr
		}
		return nil
	})
	var herr *httpError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &herr):
		return herr
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return errf(statusClientClosedRequest, "sweep cancelled: %v", err)
	}
	return errf(http.StatusUnprocessableEntity, "sweep: %v", err)
}

func (sj *sweepJob) header(distributed bool) any {
	return &sweepLine{Type: "sweep", Points: sj.prep.NumPoints(), Distributed: distributed}
}

// record rebuilds the point's wire form from its ShardBatch plus this
// server's own expansion (points are deterministic in the spec, so the
// coordinates never cross the wire).
func (sj *sweepJob) record(sb *ShardBatch) (any, *httpError) {
	pt := sj.prep.Point(sb.Batch)
	pj := &SweepPointJSON{
		Index:      sb.Batch,
		Circuit:    sj.prep.Circuit(sb.Batch).Name,
		Noise:      pt.Noise.Label(),
		Shots:      pt.Shots,
		Partition:  pt.Partition.Label(),
		Rep:        pt.Rep,
		Seed:       sb.Seed,
		Backend:    sb.Backend,
		Structure:  sb.Structure,
		Outcomes:   sb.Outcomes,
		Counts:     sb.Counts,
		Ops:        sb.Ops,
		PrefixHits: sb.PrefixHits,
		Fidelity:   sb.Fidelity,
		ElapsedMS:  sb.ElapsedMS,
	}
	sj.results = append(sj.results, *pj)
	sj.ops += sb.Ops
	sj.prefixHits += sb.PrefixHits
	return &sweepLine{Type: "point", SweepPointJSON: pj}, nil
}

func (sj *sweepJob) finish(elapsedMS float64, distributed bool) (body, done any) {
	sort.Slice(sj.results, func(i, k int) bool { return sj.results[i].Index < sj.results[k].Index })
	resp := &SweepResponse{
		Points:      sj.prep.NumPoints(),
		Results:     sj.results,
		Ops:         sj.ops,
		PrefixHits:  sj.prefixHits,
		ElapsedMS:   elapsedMS,
		Distributed: distributed,
	}
	return resp, &sweepLine{
		Type:            "done",
		Points:          resp.Points,
		TotalOps:        resp.Ops,
		TotalPrefixHits: resp.PrefixHits,
		TotalElapsedMS:  resp.ElapsedMS,
	}
}
