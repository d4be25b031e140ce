// Package trajectory implements the baseline multi-shot noisy simulator the
// paper compares against: quantum-trajectory (Monte Carlo wave function)
// simulation that re-executes the full circuit once per shot with freshly
// sampled noise (the (N, 1, ..., 1) simulation tree of Figure 6).
//
// It shares the state-vector engine and noise machinery with TQSim
// (internal/core), so measured speedups isolate the effect of computational
// reuse rather than implementation differences — mirroring the paper's
// methodology of implementing both on the same backend.
//
// The tree executor can also run the flat (shots,) plan, so this package is
// a second implementation of that case and is kept on purpose: it is the
// independent per-shot oracle — one loop, no plan, no node numbering, no
// reuse hooks — that the benchmark's reference path and the core and
// stabilizer tests compare the executor against. It is not a faster path
// and nothing should be optimized into it that the executor does not have.
package trajectory

import (
	"runtime"
	"sync"
	"time"

	"tqsim/internal/circuit"
	"tqsim/internal/gate"
	"tqsim/internal/noise"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// Result aggregates a multi-shot run.
type Result struct {
	// Counts histograms the sampled outcomes by basis index.
	Counts map[uint64]int
	// Shots is the number of trajectories executed.
	Shots int
	// GateApplications counts every kernel application, including noise
	// operator insertions.
	GateApplications int64
	// StateCopies counts full state-vector copies (the baseline performs
	// one re-initialization per shot, recorded here for comparability).
	StateCopies int64
	// PeakStateBytes is the peak amplitude memory held at any time.
	PeakStateBytes int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Options tunes a baseline run.
type Options struct {
	// Parallelism is the number of concurrent shot workers. Zero or one
	// runs shots sequentially (each shot still uses the engine's internal
	// kernel parallelism for wide registers). This mirrors the paper's
	// Figure 8 parallel-shot study.
	Parallelism int
	// Seed selects the reproducible trajectory stream.
	Seed uint64
}

// runShot executes one trajectory into the provided scratch state and
// returns the sampled (readout-perturbed) outcome and kernel-op count.
func runShot(c *circuit.Circuit, m *noise.Model, st *statevec.State, r *rng.RNG) (uint64, int64) {
	// Reset scratch to |0...0>. ResetZero clears the SoA planes via memclr —
	// the element loop it replaces was measurable at 2^n elements once per
	// shot.
	st.ResetZero()
	var ops int64
	for _, g := range c.Gates {
		if g.Kind != gate.KindI {
			st.Apply(g)
			ops++
		}
		ops += int64(m.ApplyAfterGate(st, g, r))
	}
	out := st.Sample(r)
	out = m.FlipReadout(out, c.NumQubits, r)
	return out, ops
}

// Run simulates `shots` noisy trajectories of circuit c under model m.
func Run(c *circuit.Circuit, m *noise.Model, shots int, opt Options) *Result {
	start := time.Now()
	res := &Result{Counts: make(map[uint64]int), Shots: shots}
	workers := opt.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > shots {
		workers = shots
	}
	if workers > 4*runtime.GOMAXPROCS(0) {
		workers = 4 * runtime.GOMAXPROCS(0)
	}
	root := rng.New(opt.Seed)

	if workers == 1 {
		st := statevec.NewZero(c.NumQubits)
		res.PeakStateBytes = int64(st.Bytes())
		for shot := 0; shot < shots; shot++ {
			r := root.SplitAt(uint64(shot))
			out, ops := runShot(c, m, st, r)
			res.Counts[out]++
			res.GateApplications += ops
			res.StateCopies++
		}
		res.Elapsed = time.Since(start)
		return res
	}

	type partial struct {
		counts map[uint64]int
		ops    int64
		copies int64
	}
	var wg sync.WaitGroup
	parts := make([]partial, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := statevec.NewZero(c.NumQubits)
			p := partial{counts: make(map[uint64]int)}
			for shot := w; shot < shots; shot += workers {
				r := root.SplitAt(uint64(shot))
				out, ops := runShot(c, m, st, r)
				p.counts[out]++
				p.ops += ops
				p.copies++
			}
			parts[w] = p
		}(w)
	}
	wg.Wait()
	for _, p := range parts {
		for k, v := range p.counts {
			res.Counts[k] += v
		}
		res.GateApplications += p.ops
		res.StateCopies += p.copies
	}
	res.PeakStateBytes = int64(workers) * statevec.StateBytes(c.NumQubits)
	res.Elapsed = time.Since(start)
	return res
}

// RunIdeal simulates the noise-free circuit once and samples `shots`
// outcomes from the final state (the ideal flow of Figure 3b).
func RunIdeal(c *circuit.Circuit, shots int, seed uint64) *Result {
	start := time.Now()
	st := statevec.NewZero(c.NumQubits)
	var ops int64
	for _, g := range c.Gates {
		st.Apply(g)
		ops++
	}
	r := rng.New(seed)
	res := &Result{
		Counts:           make(map[uint64]int),
		Shots:            shots,
		GateApplications: ops,
		StateCopies:      1,
		PeakStateBytes:   int64(st.Bytes()),
	}
	for _, out := range st.SampleMany(shots, r) {
		res.Counts[out]++
	}
	res.Elapsed = time.Since(start)
	return res
}

// IdealState returns the noise-free final state of the circuit — the
// reference for fidelity metrics.
func IdealState(c *circuit.Circuit) *statevec.State {
	st := statevec.NewZero(c.NumQubits)
	st.ApplyAll(c.Gates)
	return st
}
