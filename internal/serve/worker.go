package serve

// The worker side of the distributed shard protocol: a Server constructed
// with Config.WorkerMode leases batch ranges from a coordinator via
// POST /v1/shard and advertises its capacity via GET /v1/worker. A shard
// lease runs through exactly the same validation, planning, admission and
// execution machinery as a directly submitted job — a worker is a full
// tqsimd that additionally accepts leases, so it can also be probed,
// queried for stats, and even used directly while serving a pool.

import "net/http"

// handleShard executes one leased unit range — job batches or sweep points
// — and returns the per-unit histograms. The worker re-plans the wire
// request: planning and grid expansion are deterministic in the (pinned)
// request, so coordinator and worker always agree on the units, their seeds
// and each one's resolved engine. Capacity problems answer 503 (busy) or
// 413 (the work can never fit this worker) and the coordinator re-leases
// elsewhere; r.Context() threads its cancellation into the executor, so
// when it abandons the lease the in-flight trajectory work here stops too.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.WorkerMode {
		writeError(w, http.StatusNotFound, "not a worker: start tqsimd with -worker to accept shard leases")
		return
	}
	s.serve(w, r, func() (*submission, *httpError) {
		var sr ShardRequest
		if herr := decodeBody(w, r, &sr); herr != nil {
			return nil, herr
		}
		var wk work
		var herr *httpError
		if sr.Sweep != nil {
			wk, herr = s.preparedSweepForLease(sr.Sweep)
		} else {
			wk, herr = s.prepare(&sr.Job)
		}
		if herr != nil {
			return nil, herr
		}
		if n := wk.units(); sr.From < 0 || sr.To > n || sr.From >= sr.To {
			return nil, errf(http.StatusBadRequest, "lease [%d,%d) outside the work's %d units", sr.From, sr.To, n)
		}
		return &submission{work: wk, shape: shapeLease, from: sr.From, to: sr.To}, nil
	})
}
