package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// runCfg is what one workload run is given. Every input the workload makes
// derives from seed through rng.SeedAt.
type runCfg struct {
	seed uint64
	// seconds is how long the workload measures; set-up and output checks
	// come on top.
	seconds float64
	// scale shrinks shot and request counts; 1 in real runs, smaller in
	// the package's smoke test.
	scale float64
	// tr is nil on the untraced run that yields the end-to-end metrics.
	tr *tracer
	// probes sizes the layer probes of a traced run.
	probes probeEffort
}

// scaled shrinks a count by cfg.scale, never below floor.
func (c runCfg) scaled(n, floor int) int {
	return max(int(float64(n)*c.scale), floor)
}

func (c runCfg) duration(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// result is what one workload run reports.
type result struct {
	// attempted counts operations (shots, points or requests) started;
	// failed those refused, errored or covered by a failed output check.
	attempted, failed int
	failures          []string
	checks            int
	// e2e holds every end-to-end metric of endToEnd; layer the per-layer
	// metrics this workload observed (traced runs only).
	e2e   map[string]summary
	layer map[string]float64
}

func newResult() *result {
	return &result{e2e: make(map[string]summary), layer: make(map[string]float64)}
}

// check records one output check covering ops operations; a failed check
// counts all of them as failed.
func (r *result) check(ok bool, ops int, format string, args ...any) {
	r.checks++
	if ok {
		return
	}
	r.failed += ops
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// checkHistogram is the check every sampled histogram must pass: it holds
// exactly the outcomes its result claims, and at least the shots asked for.
func (r *result) checkHistogram(what string, counts map[uint64]int, outcomes, shots int) {
	r.check(histTotal(counts) == outcomes && outcomes >= shots, max(outcomes, 1),
		"%s: histogram holds %d outcomes, result says %d for %d shots", what, histTotal(counts), outcomes, shots)
}

// okShare is the share of attempted operations that did not fail.
func (r *result) okShare() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-min(r.failed, r.attempted)) / float64(r.attempted)
}

// histTotal sums a histogram's counts.
func histTotal(counts map[uint64]int) int {
	total := 0
	for _, v := range counts {
		total += v
	}
	return total
}

// histDigest is the identity of a histogram: sha256 over its entries in key
// order. Two runs agree exactly when their digests are equal.
func histDigest(counts map[uint64]int) string {
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:%d,", k, counts[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// repeatUntil runs body until the measuring time is used up: after at least
// minRepeats, it stops once another repeat would end more than half a
// repeat past the deadline. An error from body ends it at once.
func repeatUntil(budget time.Duration, minRepeats int, body func(rep int) error) error {
	start := time.Now()
	for rep := 0; ; rep++ {
		t0 := time.Now()
		if err := body(rep); err != nil {
			return err
		}
		if rep+1 >= minRepeats && time.Since(start)+time.Since(t0)/2 >= budget {
			return nil
		}
	}
}

// overhead collects the wall time of the traced and the untraced repeats of
// one traced run; their ratio is what tracing costs.
type overhead struct{ traced, untraced []float64 }

func (o *overhead) add(traced bool, ms float64) {
	if traced {
		o.traced = append(o.traced, ms)
	} else {
		o.untraced = append(o.untraced, ms)
	}
}

func (o *overhead) ratio() float64 { return median(o.traced) / median(o.untraced) }

// timed runs op from a collected heap and returns its wall time. Collecting
// first keeps one path's garbage out of the next path's time and makes the
// heap's growth, and with it the peak resident set, repeat from run to run.
func timed(op func()) time.Duration {
	runtime.GC()
	t0 := time.Now()
	op()
	return time.Since(t0)
}
