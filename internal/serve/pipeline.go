package serve

// The request pipeline. Every submission — a job or a sweep, as one JSON
// body or an NDJSON stream, from a client or as a coordinator's shard lease
// — runs through Server.serve: drain check → decode and plan → result-store
// lookup (replay) → execution slot → memory reservation → run units, locally
// or leased across the worker pool → index-once merge → emit → stats,
// latency, store record. A job's batches and a sweep's points are the same
// thing to it: unit i is a ShardBatch that is a pure function of (request,
// i). What differs between jobs and sweeps — how units execute and how they
// render on the wire — sits behind the work interface; what differs between
// response shapes is which of three things happens to a finished unit.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"
)

// work is a planned request as the pipeline sees it: a count of
// independently runnable units plus the format-specific halves of the
// protocol. *job (units are shot batches) and *sweepJob (units are grid
// points) implement it. A work value belongs to one request: record and
// finish accumulate into it.
type work interface {
	// units is the total unit count.
	units() int
	// peak is the admission estimate: planner-estimated peak state bytes
	// of one in-process run, which placement also divides worker budgets
	// by.
	peak() int64
	// storeKey is the result-store identity, "" when the work cannot be
	// keyed.
	storeKey() string
	// lease builds the shard request that has a worker run units [from, to).
	lease(from, to int) *ShardRequest
	// run executes units [from, to) in-process, emitting each as it
	// completes. An emit failure aborts the run and is returned as is.
	run(ctx context.Context, from, to int, emit func(*ShardBatch) *httpError) *httpError
	// counters names the stats a recorded unit and a completed request
	// book under.
	counters() (unit, completed int)

	// header renders the stream's first NDJSON line.
	header(distributed bool) any
	// record folds one unit into the response under construction and
	// renders its NDJSON line. Units arrive at most once each, in
	// completion order.
	record(sb *ShardBatch) (any, *httpError)
	// finish renders the one-JSON-body response and the stream's last line.
	finish(elapsedMS float64, distributed bool) (body, done any)
}

// shape is what happens to a request's units and its final result.
type shape int

const (
	// shapeJSON buffers: units fold into the work, one JSON body at the end.
	shapeJSON shape = iota
	// shapeNDJSON writes and flushes a line per unit as it completes,
	// between a header line and a done line.
	shapeNDJSON
	// shapeLease is a coordinator's shard lease: units are collected
	// unmerged into a checksummed ShardResponse, nothing is stored, and a
	// full queue answers 503 — the coordinator should re-lease elsewhere,
	// not bounce a client.
	shapeLease
)

// submission is a decoded, planned request: the work, the unit range to
// run, and the response shape.
type submission struct {
	work
	shape    shape
	from, to int
}

// whole submits every unit of wk as a client request.
func whole(wk work, stream bool) *submission {
	sub := &submission{work: wk, to: wk.units()}
	if stream {
		sub.shape = shapeNDJSON
	}
	return sub
}

// storedRun is a finished request's result-store record: both response
// shapes, rendered once. A run recorded from either shape replays as
// either. Lines holds the stream — header, one line per unit in index order
// (whatever order a distributed run completed them in), done — so a replay
// writes recorded bytes and never re-derives a response.
type storedRun struct {
	Body  json.RawMessage   `json:"body"`
	Lines []json.RawMessage `json:"lines"`
}

// errorLine is the NDJSON record that ends a stream whose run failed after
// the header was committed.
type errorLine struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// maxBodyBytes bounds every request body the server decodes. Inline QASM
// is the only large legitimate field; 16 MiB is orders of magnitude above
// any circuit the engines can run.
const maxBodyBytes = 16 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into v.
// An oversized body is refused 413 — from Content-Length before reading a
// byte when the client declared one, by the reader's limit otherwise — so
// nothing proportional to a hostile body is ever allocated.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *httpError {
	if r.ContentLength <= maxBodyBytes {
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
		if err == nil {
			return nil
		}
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			return errf(http.StatusBadRequest, "bad request body: %v", err)
		}
	}
	return errf(http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", maxBodyBytes)
}

// fail answers a request that never became work — undecodable, oversized or
// invalid — and books it failed.
func (s *Server) fail(w http.ResponseWriter, herr *httpError) {
	s.stats[statFailed].Add(1)
	writeError(w, herr.status, herr.msg)
}

// ndjson writes a response as NDJSON lines; the first line commits the 200.
type ndjson struct {
	w      http.ResponseWriter
	opened bool
}

// line writes one record and flushes it to the client.
func (o *ndjson) line(raw []byte) error {
	if !o.opened {
		o.w.Header().Set("Content-Type", "application/x-ndjson")
		o.w.WriteHeader(http.StatusOK)
		o.opened = true
	}
	if _, err := o.w.Write(append(raw, '\n')); err != nil {
		return err
	}
	if f, ok := o.w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// replay writes a stored run in the requested shape. It reports false —
// without touching the ResponseWriter — when the record does not decode or
// does not cover the request (a truncated or foreign blob): the caller then
// runs live and overwrites the bad entry. A client that hangs up mid-replay
// stops the writing, but the replay still counts as served.
func replay(w http.ResponseWriter, sub *submission, blob []byte) bool {
	var rec storedRun
	if json.Unmarshal(blob, &rec) != nil || len(rec.Body) == 0 || len(rec.Lines) != sub.units()+2 {
		return false
	}
	if sub.shape == shapeJSON {
		writeRawJSON(w, rec.Body)
		return true
	}
	out := &ndjson{w: w}
	for _, raw := range rec.Lines {
		if out.line(raw) != nil {
			break
		}
	}
	return true
}

// serve is the one request path; see the file comment for the stages.
// decode reads and plans the request — it runs after the drain check, so a
// draining server rejects without parsing anything.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, decode func() (*submission, *httpError)) {
	start := time.Now()
	if s.Draining() {
		s.stats[statDraining].Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining; retry")
		return
	}
	sub, herr := decode()
	if herr != nil {
		s.fail(w, herr)
		return
	}
	lease := sub.shape == shapeLease
	_, doneStat := sub.counters()
	if lease {
		doneStat = statCompleted
	}

	// The store lookup runs before the queue: a replay writes already-merged
	// bytes and must not wait behind — or consume — an execution slot or
	// any memory budget.
	key, replayed := "", false
	if s.results != nil && !lease {
		if key = sub.storeKey(); key != "" {
			blob, ok := s.results.Get(key)
			if replayed = ok && replay(w, sub, blob); replayed {
				s.stats[statResultsHits].Add(1)
			} else {
				s.stats[statResultsMisses].Add(1)
			}
		}
	}

	var rec *storedRun
	if !replayed {
		ctx := r.Context()
		if err := s.acquire(ctx); err != nil {
			if !errors.Is(err, errQueueFull) {
				// The client (or leasing coordinator) went away while queued:
				// the connection is gone, so there is nothing to write —
				// canceled, not failed.
				s.stats[statCanceled].Add(1)
				return
			}
			s.stats[statQueueFull].Add(1)
			status := http.StatusTooManyRequests
			if lease {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, fmt.Sprintf("queue full (%d running + %d queued)", s.cfg.MaxConcurrent, s.cfg.QueueDepth))
			return
		}
		defer s.release()
		var ok bool
		if rec, ok = s.execute(ctx, w, sub, key != ""); !ok {
			return
		}
	}

	// Booked after the final write, replayed or run, whatever the shape.
	s.stats[doneStat].Add(1)
	s.reqLat.Record(time.Since(start))
	if rec != nil {
		// Marshal failures drop the record silently — the store is an
		// optimization, never a correctness dependency.
		if blob, err := json.Marshal(rec); err == nil {
			s.results.Put(key, blob)
		}
	}
}

// execute runs an admitted submission and writes its response: memory
// reservation, header, the units — in-process or leased across the pool —
// through the index-once merge, then the final body or done line. It books
// its own failures and reports whether the request completed; with keep it
// also returns the run's store record.
func (s *Server) execute(ctx context.Context, w http.ResponseWriter, sub *submission, keep bool) (*storedRun, bool) {
	lease := sub.shape == shapeLease
	stream := sub.shape == shapeNDJSON
	unitStat, _ := sub.counters()

	// Multi-unit work shards across the worker pool when one is configured;
	// a single unit has nothing to shard, and a lease is already a shard.
	n := sub.to - sub.from
	distributed := s.pool != nil && !lease && n > 1
	if !distributed {
		// Memory is reserved only once the request holds an execution slot:
		// queued requests consume no state memory, so they must not pin the
		// budget against the ones actually running. Distributed work
		// reserves on the workers that execute its shards (and here only
		// for a local fallback, inside runLeased).
		if herr := s.reserveMemory(sub.peak()); herr != nil {
			writeError(w, herr.status, herr.msg)
			return nil, false
		}
		defer s.releaseMemory(sub.peak())
	}

	// emit renders one NDJSON line into the stream, the store record, both
	// or neither. Slot 0 is the header, 1+i unit i, n+1 the done line.
	out := &ndjson{w: w}
	var rec *storedRun
	if keep {
		rec = &storedRun{Lines: make([]json.RawMessage, n+2)}
	}
	emit := func(slot int, v any) error {
		if !stream && !keep {
			return nil
		}
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if keep {
			rec.Lines[slot] = raw
		}
		if stream {
			return out.line(raw)
		}
		return nil
	}
	// A failed header emit means the client is already gone: abort before
	// admitting any unit. The request books as canceled (the client
	// disconnected, the request wasn't bad) and nothing runs.
	if err := emit(0, sub.header(distributed)); err != nil {
		s.stats[statCanceled].Add(1)
		return nil, false
	}

	// record is the index-once merge: whatever path a unit took here — run
	// in-process, leased to a worker, re-leased after a failure — it is
	// counted, folded and emitted exactly once.
	var shard ShardResponse
	if lease {
		shard.Batches = make([]ShardBatch, n)
	}
	got := make([]bool, n)
	record := func(sb *ShardBatch) *httpError {
		i := sb.Batch - sub.from
		if i < 0 || i >= n {
			return errf(http.StatusBadGateway, "unit %d outside the requested [%d,%d)", sb.Batch, sub.from, sub.to)
		}
		if got[i] {
			return nil
		}
		got[i] = true
		s.stats[unitStat].Add(1)
		if lease {
			shard.Batches[i] = *sb
			return nil
		}
		line, herr := sub.record(sb)
		if herr != nil {
			return herr
		}
		if err := emit(1+i, line); err != nil {
			return errf(http.StatusInternalServerError, "stream: %v", err)
		}
		return nil
	}

	runStart := time.Now()
	var herr *httpError
	if distributed {
		herr = s.runLeased(ctx, sub.work, record)
	} else {
		herr = sub.run(ctx, sub.from, sub.to, record)
	}
	if i := slices.Index(got, false); herr == nil && i >= 0 {
		herr = errf(http.StatusInternalServerError, "unit %d was never executed", sub.from+i)
	}

	if herr != nil {
		return s.abort(ctx, out, herr)
	}

	var body any
	if lease {
		shard.Backend, shard.Structure = shard.Batches[n-1].Backend, shard.Batches[n-1].Structure
		shard.Checksum = ShardChecksum(shard.Batches)
		body = &shard
	} else {
		var done any
		body, done = sub.finish(millis(time.Since(runStart)), distributed)
		_ = emit(n+1, done) // terminal line: the run is complete, nothing left to abort
	}
	var raw []byte
	if !stream || keep {
		// Can only fail before anything was written: a stream's lines have
		// already marshaled the same values.
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return s.abort(ctx, out, errf(http.StatusInternalServerError, "encode: %v", err))
		}
	}
	if !stream {
		writeRawJSON(w, raw)
	}
	if keep {
		rec.Body = raw
	}
	return rec, true
}

// abort books and answers a run that failed after admission: an error body
// with the failure's status, or — once a stream's header has committed the
// 200 — a final error line. Client-cancelled requests are canceled,
// everything else failed; the context check catches failures that are
// really disconnects in disguise — a streaming write to a connection the
// client already closed surfaces as a stream error before the next ctx
// check.
func (s *Server) abort(ctx context.Context, out *ndjson, herr *httpError) (*storedRun, bool) {
	if herr.status == statusClientClosedRequest || ctx.Err() != nil {
		s.stats[statCanceled].Add(1)
	} else {
		s.stats[statFailed].Add(1)
	}
	if !out.opened {
		writeError(out.w, herr.status, herr.msg)
	} else if raw, err := json.Marshal(&errorLine{Type: "error", Error: herr.msg}); err == nil {
		_ = out.line(raw) // terminal line of a failed stream: nothing left to abort
	}
	return nil, false
}

// writeRawJSON writes pre-marshaled bytes exactly the way writeJSON writes
// a value: Encoder.Encode is Marshal plus a trailing newline, so a replayed
// body is byte-identical to the recorded live response.
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n'))
}
