package serve

// The serve layer's integration with internal/resultstore: key derivation.
// The record shape (storedRun) and byte-identical replay in both response
// formats live with the pipeline.
//
// Determinism argument, in short: a stored entry's key pins every input
// that shapes the merged histogram — the circuit's structural digest (full
// gate content, including raw-unitary matrices), noise model, mode,
// backend, seed, shots, the pinned batch size, and every decision-shaping
// option. Batch i runs at the derived seed BatchSeed(seed, i) regardless of
// scheduling, placement or failure timing, and countsJSON keys serialize in
// sorted order, so two runs with equal keys produce equal bytes — which is
// what lets a replay return the recorded first run verbatim. ElapsedMS is
// the one run-varying response field; replays return the recorded value
// rather than pretending to have simulated.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tqsim"
)

// storeKey derives a job's store identity from the pinned wire request
// (prepare resolved every default into it) plus the circuit's structural
// digest and display name. The digest — not the QASM text — carries the
// program identity, so formatting differences that parse to the same gate
// list share an entry, while same-shape circuits with different unitaries
// never do. BatchShots is part of the key because the batch split changes
// the per-batch seed schedule, and with it the merged histogram.
func (j *job) storeKey() string {
	w := j.wire
	h := sha256.New()
	fmt.Fprintf(h, "tqsim-result-v3\x00%s\x00%s\x00%s\x00%s\x00%s\x00%d\x00%d\x00%d\x00%g\x00%d\x00%d\x00%d\x00%g\x00%d",
		tqsim.CircuitDigest(j.circuit), j.circuit.Name, w.Noise, w.Mode, w.Backend,
		w.Shots, w.Seed, w.BatchShots, w.CopyCost, w.MaxLevels, w.MemoryBudgetBytes,
		w.Parallelism, w.Epsilon, w.ClusterNodes)
	return hex.EncodeToString(h.Sum(nil))
}

// storeKey derives a sweep's store identity from the canonical JSON
// of the pinned wire spec — the same bytes preparedSweepForLease keys
// worker-side sharing on. Grid expansion, per-point seeds and planner
// decisions are all deterministic in the pinned spec, so equal specs mean
// equal results.
func (sj *sweepJob) storeKey() string {
	raw, err := json.Marshal(sj.wire)
	if err != nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte("tqsim-sweep-v3\x00"))
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil))
}
