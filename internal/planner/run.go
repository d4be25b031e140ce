package planner

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"tqsim/internal/cluster"
	"tqsim/internal/core"
	"tqsim/internal/densmat"
	// Registration only: every name Resolve accepts is linked into whatever
	// binary reaches an engine through this package.
	_ "tqsim/internal/fusion"
	"tqsim/internal/hpcmodel"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/stabilizer"
	"tqsim/internal/statevec"
)

// Auto is the backend name that delegates engine selection to Decide; ""
// means the same to Resolve (the facade substitutes its own defaults first).
const Auto = "auto"

// CheckBackend is the one rule for which backend names a request may carry:
// "", Auto, or a registered engine. It returns an error naming the choices
// for anything else, so callers can reject a bad name before any work.
func CheckBackend(name string) error {
	if name == "" || name == Auto || slices.Contains(core.Backends(), name) {
		return nil
	}
	return fmt.Errorf("unknown backend %q (have %s, %s)", name, Auto, strings.Join(core.Backends(), ", "))
}

// Resolved is a run with nothing left to decide, and the only road to an
// engine: the facade, the sweep engine and tqsimd all obtain one from Resolve
// or Admit and execute it with Run (or Executor, for observables), so what a
// request was estimated and admitted on is what runs. Immutable, and safe to
// share across concurrent runs.
type Resolved struct {
	// Plan and Noise are the inputs the configuration was resolved for.
	Plan  *partition.Plan
	Noise *noise.Model
	// Backend is the concrete registry name, never Auto; Mode the stabilizer
	// engine's ModeTableauTree or ModeHybrid, "" for every other engine.
	Backend, Mode string
	// Parallelism is the worker count the run uses, in [1, first-level
	// arity]: the Decision's (memory-clamped) for an auto run, the requested
	// one for an explicit run. ClusterNodes is the requested shard count
	// (0 = the default), which the cluster backend resolves per state with
	// cluster.Shards.
	Parallelism, ClusterNodes int
	// EstPeakBytes is the peak state memory of this configuration: the
	// admission estimate, and the PeakStateBytes the run will report.
	EstPeakBytes int64
	// Decision is the planner's candidate table: set by Admit and for an auto
	// backend, nil where Resolve took an explicit backend at its word.
	Decision *Decision

	budget Budget
}

// Resolve turns (plan, noise, backend name, budget) into the run
// configuration. Auto adopts Decide's engine, mode, worker count and
// estimate, and its shard count unless the budget fixed one. Any other name
// is taken at its word without consulting the planner: the requested worker
// count clamped to [1, A0], the budget's shard count and that engine's own
// estimate — an explicit run sheds no workers, so the estimate may exceed
// the budget, and admission is the caller's business.
func Resolve(p *partition.Plan, m *noise.Model, backend string, b Budget) (*Resolved, error) {
	return resolve(p, m, backend, b, false)
}

// Admit is Resolve with the planner consulted whatever the backend — what a
// service does before committing resources: the error says no engine can run
// the plan inside the budget (a request worth refusing even when it names its
// engine), and Resolved.Decision is always there to show the client.
func Admit(p *partition.Plan, m *noise.Model, backend string, b Budget) (*Resolved, error) {
	return resolve(p, m, backend, b, true)
}

// resolve is the one place a backend name becomes a configuration.
func resolve(p *partition.Plan, m *noise.Model, backend string, b Budget, consult bool) (*Resolved, error) {
	r := &Resolved{Plan: p, Noise: m, Backend: backend, ClusterNodes: b.ClusterNodes, budget: b}
	auto := backend == "" || backend == Auto
	if auto && b.Observable {
		// Observables need dense leaf states, so the planner's polynomial
		// winners (tableau tree, densmat) do not apply: auto means the dense
		// reference engine, resolved like any explicit name.
		r.Backend, auto = "statevec", false
	}
	if auto || consult {
		var err error
		if r.Decision, err = Decide(p, m, b); err != nil {
			return nil, err
		}
	}
	if auto {
		d := r.Decision
		r.Backend, r.Mode = d.Backend, d.Mode
		r.Parallelism, r.EstPeakBytes = d.Parallelism, d.EstPeakBytes
		if r.ClusterNodes == 0 {
			r.ClusterNodes = d.ClusterNodes
		}
		return r, nil
	}
	a := analyze(p, m, b)
	r.Parallelism = min(max(b.Parallelism, 1), p.Arities[0])
	if r.Backend == "stabilizer" {
		r.Mode = ModeHybrid
		if !b.Observable && a.tableauBlocker() == "" {
			r.Mode = ModeTableauTree
		}
	}
	r.EstPeakBytes = a.peakBytes(r.Backend, r.Mode, r.Parallelism, b)
	return r, nil
}

// infinite is the estimate of a run too wide to allocate: it will fail with a
// width diagnostic, and admission against any finite budget rejects it first.
const infinite = math.MaxInt64 / 4

// peakBytes is the named engine's peak state memory at a fixed worker count:
// an explicit run's estimate, and the tableau candidate's. The tableau tree
// holds one tableau per level plus the working copy, per worker — the number
// stabilizer.RunTreeContext reports as PeakStateBytes.
func (a analysis) peakBytes(backend, mode string, workers int, b Budget) int64 {
	switch {
	case backend == "densmat":
		return densmatBytes(a.n)
	case mode == ModeTableauTree && a.n <= stabilizer.MaxTreeQubits:
		return int64(workers) * int64(a.levels+1) * stabilizer.TableauBytes(a.n)
	case a.n > statevec.MaxQubits:
		return infinite
	default:
		return a.densePeakBytes(backend, workers, b)
	}
}

// densmatBytes is the exact engine's footprint, one n-qubit density matrix
// (saturating beyond int64): what it is admitted on and what it reports.
func densmatBytes(n int) int64 {
	if dm := hpcmodel.DensityMatrixBytes(n); dm < infinite {
		return int64(dm)
	}
	return infinite
}

// Run executes the configuration at a seed: "densmat" samples the plan's leaf
// count from the exact distribution, the tableau tree never allocates a dense
// state, everything else is a gate-apply backend on the dense executor.
// spines optionally supplies the cache a reusing dense run takes its ideal
// spine from instead of building its own (a sweep's, tqsimd's); the other
// routes ignore it. Cancellation is checked per tree node, and for densmat
// only here, since its whole execution costs less than one dense node.
func (r *Resolved) Run(ctx context.Context, seed uint64, spines *core.SnapshotCache) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case r.Backend == "densmat":
		return r.runDensmat(seed)
	case r.Mode == ModeTableauTree:
		return stabilizer.RunTreeContext(ctx, r.Plan, r.Noise, seed, r.Parallelism)
	}
	ex, err := r.Executor(ctx, seed, spines)
	if err != nil {
		return nil, err
	}
	return ex.Run(r.Plan)
}

// Executor builds the configuration's dense tree executor: the width
// diagnosis, the gate-apply backend (the cluster engine at the resolved shard
// count) and every field a dense run sets. Observable estimation calls it
// directly and runs RunExpectation on r.Plan.
func (r *Resolved) Executor(ctx context.Context, seed uint64, spines *core.SnapshotCache) (*core.Executor, error) {
	if err := r.widthCheck(); err != nil {
		return nil, err
	}
	be, err := core.NewBackend(r.Backend)
	if err != nil {
		return nil, err
	}
	if r.Backend == "cluster" && r.ClusterNodes > 0 {
		be = cluster.NewBackend(r.ClusterNodes)
	}
	return &core.Executor{
		Backend:     be,
		Noise:       r.Noise,
		Seed:        seed,
		Parallelism: r.Parallelism,
		Context:     ctx,
		Spines:      spines,
		// As the estimate assumed, so the reuse decision is the planner's.
		MemoryBudgetBytes: r.budget.MemoryBytes,
		FullWalk:          r.budget.FullWalk,
	}, nil
}

// widthCheck diagnoses a circuit about to reach the dense executor at a width
// it cannot allocate, instead of letting statevec panic, with the same
// hpcmodel estimate Decide's rejection reasons carry.
func (r *Resolved) widthCheck() error {
	c := r.Plan.Circuit
	n := c.NumQubits
	if n <= statevec.MaxQubits {
		return nil
	}
	est := hpcmodel.FormatBytes(hpcmodel.StatevectorBytes(n))
	if r.Backend == "stabilizer" {
		return fmt.Errorf(
			"tqsim: %d qubits exceeds the %d-qubit dense limit (state vector ≈ %s) and the stabilizer fast path does not apply (circuit Clifford-only: %v, noise Pauli-only: %v)",
			n, statevec.MaxQubits, est, stabilizer.IsClifford(c), r.Noise.PauliOnly())
	}
	return fmt.Errorf("tqsim: %d qubits exceeds the %s backend's %d-qubit dense limit (state vector ≈ %s)",
		n, r.Backend, statevec.MaxQubits, est)
}

// runDensmat draws the plan's leaf count of samples from the exact
// density-matrix distribution, wrapped in the executor's result type.
func (r *Resolved) runDensmat(seed uint64) (*core.Result, error) {
	start := time.Now()
	p := r.Plan
	counts, err := densmat.RunCounts(p.Circuit, r.Noise, p.TotalOutcomes(), seed)
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Counts:         counts,
		Outcomes:       p.TotalOutcomes(),
		Structure:      p.Structure(),
		BackendName:    "densmat",
		PeakStateBytes: densmatBytes(p.Circuit.NumQubits),
		Elapsed:        time.Since(start),
	}, nil
}

func init() {
	// Not in a densmat init: core -> observable -> densmat -> core would
	// cycle.
	core.RegisterExternal("densmat",
		"exact density-matrix engine; runs whole circuits outside the tree executor")
}
