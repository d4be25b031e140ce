// Package tqsim is a tree-based noisy quantum circuit simulator — a from-
// scratch Go implementation of "Accelerating Simulation of Quantum Circuits
// under Noise via Computational Reuse" (Wang, Tannu, Nair; ISCA 2025).
//
// Noisy (quantum-trajectory) simulation re-executes a circuit for thousands
// of shots. TQSim partitions the circuit into subcircuits, arranges shots as
// a simulation tree, and reuses each intermediate state across all children,
// cutting total computation by 1.5-4x with a statistically bounded accuracy
// loss.
//
// Basic use:
//
//	c := tqsim.NewCircuit("bell", 2)
//	c.H(0).CX(0, 1)
//	noise := tqsim.SycamoreNoise()
//	cmp, err := tqsim.Compare(c, noise, 4000, tqsim.Options{Seed: 1})
//	fmt.Println(cmp.Speedup, cmp.FidelityDiff)
//
// The facade re-exports the building blocks (circuits, gates, noise models,
// partition plans, metrics, workload generators) so downstream code rarely
// needs the internal packages directly.
package tqsim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tqsim/internal/circuit"
	"tqsim/internal/core"
	"tqsim/internal/densmat"
	"tqsim/internal/gate"
	"tqsim/internal/metrics"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/planner"
	"tqsim/internal/qasm"
	"tqsim/internal/rng"
	"tqsim/internal/trajectory"
)

// Re-exported core types. The facade uses type aliases so values flow
// freely between the public API and the internal engines.
type (
	// Circuit is an ordered gate list over a fixed qubit register.
	Circuit = circuit.Circuit
	// Gate is a single gate instance.
	Gate = gate.Gate
	// NoiseModel binds error channels to gates.
	NoiseModel = noise.Model
	// NoiseChannel is a single error channel.
	NoiseChannel = noise.Channel
	// Plan is a simulation-tree specification.
	Plan = partition.Plan
	// TreeResult is a TQSim run result.
	TreeResult = core.Result
	// BaselineResult is a conventional multi-shot run result.
	BaselineResult = trajectory.Result
	// Backend is a pluggable gate-execution engine.
	Backend = core.Backend
	// Dist is a dense probability distribution over basis outcomes.
	Dist = metrics.Dist
	// Decision is the planner's explainable engine choice: chosen backend,
	// worker count, shard count, cost/peak-memory estimates, and every
	// rejected candidate with its reason. Decisions are deterministic in
	// (plan, noise, budget, worker count) — with Parallelism unset the
	// worker count defaults to GOMAXPROCS, so within one process (the
	// scope of tqsimd's cache) repeated calls always agree.
	Decision = planner.Decision
	// PlannerCandidate is one engine the planner evaluated for a Decision.
	PlannerCandidate = planner.Candidate
	// SnapshotCache is a byte-bounded cross-job cache of ideal spine
	// states, keyed per gate cut by the structural digest of the gate
	// prefix before it. Any two jobs whose circuits share a gate prefix
	// share the cached state at every common cut. Safe for concurrent use;
	// see NewSnapshotCache.
	SnapshotCache = core.SnapshotCache
)

// AutoBackend is the Options.Backend value that delegates engine selection
// to the planner. It is the effective default for RunTQSim and RunBackend:
// a zero Options runs each plan on the engine the planner picks (statevec
// for narrow non-Clifford circuits, the stabilizer tableau tree for
// Clifford circuits under Pauli noise, ...). Selection is deterministic in
// (plan, noise, budget, worker count — GOMAXPROCS when Parallelism is
// unset); the sampled histogram remains a pure function of (circuit,
// noise, shots, seed, chosen backend) exactly as with an explicit Backend.
const AutoBackend = planner.Auto

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// ParseQASM parses an OpenQASM 2.0 program (single quantum register,
// standard gate set) into a circuit.
func ParseQASM(name, src string) (*Circuit, error) {
	prog, err := qasm.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return prog.Circuit, nil
}

// SerializeQASM renders a circuit as OpenQASM 2.0.
func SerializeQASM(c *Circuit) (string, error) { return qasm.Serialize(c) }

// SycamoreNoise returns the paper's primary model: depolarizing channels at
// Google Sycamore error rates (0.1% one-qubit, 1.5% two-qubit).
func SycamoreNoise() *NoiseModel { return noise.NewSycamore() }

// DepolarizingNoise returns a depolarizing model at the given rates.
func DepolarizingNoise(p1, p2 float64) *NoiseModel { return noise.NewDepolarizing(p1, p2) }

// LookupNoise resolves a noise-model name, case-insensitively: one of the
// paper's nine Figure-16 variants (DC, DCR, TR, TRR, AD, ADR, PD, PDR, ALL),
// or ideal/none/"" for no noise (a nil model). The model's Name is the
// canonical spelling. Any other name is an error, so a typo cannot silently
// simulate the ideal circuit.
func LookupNoise(name string) (*NoiseModel, error) {
	m, ok := noise.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown noise model %q (have ideal, DC, DCR, TR, TRR, AD, ADR, PD, PDR, ALL)", name)
	}
	return m, nil
}

// NoiseByName is LookupNoise for names known to be valid: an unknown name
// returns nil, the ideal model.
func NoiseByName(name string) *NoiseModel { return noise.ByName(name) }

// Options tunes a simulation run.
type Options struct {
	// Seed selects the reproducible trajectory stream (default 0).
	Seed uint64
	// CopyCost overrides the state-copy cost (gate-equivalents) used by
	// DCP; zero selects the fixed library default (host-independent, so
	// plans stay reproducible across machines). cmd/tqsim profiles the host
	// instead; ProfileCopyCost exposes the same measurement.
	CopyCost float64
	// MaxLevels caps the subcircuit count (0 = automatic).
	MaxLevels int
	// MemoryBudgetBytes caps concurrent intermediate-state memory
	// (0 = unlimited): DCP keeps the tree's levels inside it, the planner
	// sheds workers to fit it, and the dense executor drops quiet-segment
	// reuse when the reuse states would not fit.
	MemoryBudgetBytes int64
	// Backend selects the gate-execution engine by registry name:
	// "statevec", "fusion", "stabilizer", "densmat", or "cluster" — see
	// Backends — or "auto" (AutoBackend) to let the planner choose.
	// RunTQSim and RunBackend default to "auto"; RunPlan, RunBaselineBackend
	// and the observable estimators keep "statevec" as the empty-string
	// default for compatibility. "stabilizer" is the hybrid Clifford
	// dispatcher: Clifford-only circuits under Pauli noise run entirely on
	// tableaux (polynomial time and memory, so widths beyond the dense
	// engines' reach work); circuits with non-Clifford gates run their
	// maximal Clifford prefix on tableaux and hand off to the dense
	// kernels at the first non-Clifford gate. "densmat" computes the exact
	// noisy distribution (<= 12 qubits) and samples outcomes from it.
	Backend string
	// ClusterNodes sets the shard count for the cluster backend (a power
	// of two; 0 selects the default). Ignored by other backends.
	ClusterNodes int
	// Parallelism sets worker counts: shot-level for the baseline and
	// first-level-subtree for TQSim trees (0 = sequential). Histograms are
	// seed-deterministic at any parallelism.
	Parallelism int
	// Epsilon overrides Equation 5's margin of error (0 = default 0.02).
	Epsilon float64
}

// Backends lists every registered engine name, sorted.
func Backends() []string { return core.Backends() }

// backendName resolves the effective engine name. The empty name stays
// "statevec" here — only RunTQSim and RunBackend promote it to "auto", so
// lower-level entry points keep their historical default.
func (o Options) backendName() string {
	if o.Backend != "" {
		return o.Backend
	}
	return "statevec"
}

// autoDefault promotes the zero-value backend to planner dispatch — the
// RunTQSim/RunBackend default.
func (o Options) autoDefault() Options {
	if o.Backend == "" {
		o.Backend = AutoBackend
	}
	return o
}

// plannerBudget translates the run options into the planner's resource
// budget.
func (o Options) plannerBudget() planner.Budget {
	return planner.Budget{
		MemoryBytes:  o.MemoryBudgetBytes,
		Parallelism:  o.Parallelism,
		ClusterNodes: o.ClusterNodes,
	}
}

// DecidePlan returns the planner's Decision for an explicit plan — the
// explainability hook behind Options.Backend == "auto". The Decision lists
// the chosen engine, worker count and shard count plus every rejected
// candidate with its reason; it never executes anything. Deterministic in
// (plan, noise, budget).
func DecidePlan(p *Plan, m *NoiseModel, opt Options) (*Decision, error) {
	return planner.Decide(p, m, opt.plannerBudget())
}

// Explain returns the planner's Decision for the DCP plan RunTQSim would
// execute with these options, without running it. cmd/tqsim -explain and
// the tqsimd plan endpoint render its String form.
func Explain(c *Circuit, m *NoiseModel, shots int, opt Options) (*Decision, error) {
	return DecidePlan(PlanDCP(c, m, shots, opt), m, opt)
}

func (o Options) dcpOptions() partition.DCPOptions {
	return partition.DCPOptions{
		CopyCost:          o.CopyCost,
		Epsilon:           o.Epsilon,
		MaxLevels:         o.MaxLevels,
		MemoryBudgetBytes: o.MemoryBudgetBytes,
	}
}

// PlanDCP builds the Dynamic Circuit Partition plan for a circuit, noise
// model, and shot budget. Planning is deterministic: the same inputs (with
// an explicit CopyCost — zero selects the fixed default, never a host
// profile) always produce the same tree, which is what lets tqsimd cache
// plans by job key.
func PlanDCP(c *Circuit, m *NoiseModel, shots int, opt Options) *Plan {
	return partition.Dynamic(c, m, shots, opt.dcpOptions())
}

// PlanStructure builds a manual plan with the given arity tuple over
// equal-length subcircuits (e.g. the paper's Figure 17 structures).
func PlanStructure(c *Circuit, arities []int) *Plan {
	return partition.FromStructure(c, arities)
}

// PlanBaseline returns the conventional flat (shots, 1, ..., 1) plan: no
// subcircuit reuse, one independent trajectory per shot — what RunBackend
// executes. Exposed so services can plan and admission-check baseline jobs
// through the same DecidePlan path as tree jobs.
func PlanBaseline(c *Circuit, shots int) *Plan {
	return partition.Baseline(c, shots)
}

// RunBaselineBackend simulates shots noisy trajectories the conventional
// way. Histograms are a pure function of (circuit, noise, shots, seed,
// backend): identical across Options.Parallelism settings and repeated runs.
// The default state-vector engine runs through the dedicated trajectory
// simulator; any other Options.Backend routes the (shots,) baseline plan
// through the selected engine, whose errors (unknown name, width beyond the
// engine's limit) are returned.
func RunBaselineBackend(c *Circuit, m *NoiseModel, shots int, opt Options) (*BaselineResult, error) {
	if opt.backendName() != "statevec" {
		res, err := RunBackend(c, m, shots, opt)
		if err != nil {
			return nil, err
		}
		return &BaselineResult{
			Counts:           res.Counts,
			Shots:            res.Outcomes,
			GateApplications: res.GateApplications,
			StateCopies:      res.StateCopies,
			PeakStateBytes:   res.PeakStateBytes,
			Elapsed:          res.Elapsed,
		}, nil
	}
	return trajectory.Run(c, m, shots, trajectory.Options{
		Seed:        opt.Seed,
		Parallelism: opt.Parallelism,
	}), nil
}

// RunBackend executes shots independent trajectories of c on the engine
// selected by Options.Backend, through the tree executor's flat baseline
// plan. It is the uniform entry point the cross-backend conformance suite
// drives: every registered engine is reachable from here by name. A zero
// Backend defaults to "auto" (planner dispatch); histograms remain a pure
// function of (circuit, noise, shots, seed, chosen backend) at any
// Parallelism.
func RunBackend(c *Circuit, m *NoiseModel, shots int, opt Options) (*TreeResult, error) {
	return RunPlan(partition.Baseline(c, shots), m, opt.autoDefault())
}

// RunIdeal simulates the noise-free circuit once and samples shots
// outcomes. Deterministic in (circuit, shots, seed).
func RunIdeal(c *Circuit, shots int, seed uint64) *BaselineResult {
	return trajectory.RunIdeal(c, shots, seed)
}

// RunTQSim partitions the circuit with DCP and executes the simulation
// tree. A zero Options.Backend defaults to "auto": the planner inspects the
// plan and picks the engine (see Explain for the reasoning). For a fixed
// chosen backend the histogram is a pure function of (circuit, noise,
// shots, seed) — identical across Parallelism settings and repeated runs.
func RunTQSim(c *Circuit, m *NoiseModel, shots int, opt Options) (*TreeResult, error) {
	opt = opt.autoDefault()
	return RunPlan(PlanDCP(c, m, shots, opt), m, opt)
}

// RunPlan executes an explicit simulation-tree plan. Options.Parallelism
// distributes first-level subtrees across workers; results are
// seed-deterministic regardless.
//
// Engine routing is Options.Backend's: "auto" resolves to the planner's
// Decision for this plan first (see DecidePlan), an explicit name runs that
// engine without consulting the planner.
func RunPlan(p *Plan, m *NoiseModel, opt Options) (*TreeResult, error) {
	return RunPlanContext(context.Background(), p, m, opt)
}

// RunPlanContext is RunPlan with cooperative cancellation: when ctx is
// cancelled the run stops and returns ctx.Err() instead of a result.
// Cancellation is checked once per tree node on the dense engines (a node
// is a full subcircuit instance, so in-flight trajectory work stops within
// one O(2^n) segment) and on the stabilizer tableau tree (a flat Clifford
// plan is one node per shot); densmat checks only before it starts, since
// its whole execution costs less than one dense node. Completed runs are
// unaffected by ctx: for a fixed chosen backend the histogram remains a pure
// function of (circuit, noise, shots, seed). This is the one entry every
// other run function reaches an engine through.
func RunPlanContext(ctx context.Context, p *Plan, m *NoiseModel, opt Options) (*TreeResult, error) {
	r, err := planner.Resolve(p, m, opt.backendName(), opt.plannerBudget())
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, opt.Seed, nil)
}

// NewSnapshotCache returns a SnapshotCache holding at most maxBytes of
// spine states (LRU-evicted beyond it; maxBytes <= 0 is unbounded).
// tqsimd constructs one per daemon (-snapshot-cache-mb) and hands it to
// every job batch and sweep point; only runs that reuse take a spine.
func NewSnapshotCache(maxBytes int64) *SnapshotCache {
	return core.NewSnapshotCache(maxBytes)
}

// CircuitDigest returns the circuit's structural sha256 identity: width
// plus the full gate list (kinds, operand qubits, parameter bits, explicit
// matrix bytes). Total where QASM serialization is not (raw unitaries have
// no QASM 2.0 form), and collision-resistant where a name/shape fallback is
// not — the identity tqsimd keys its plan cache and result store by.
func CircuitDigest(c *Circuit) string { return c.Digest() }

// IdealDistribution returns the exact noise-free outcome distribution —
// fully deterministic, no sampling.
func IdealDistribution(c *Circuit) Dist {
	return metrics.NewDist(trajectory.IdealState(c).Probabilities())
}

// ExactNoisyDistribution returns the density-matrix (exact) noisy outcome
// distribution; feasible up to about 12 qubits. Fully deterministic: the
// density matrix averages over all trajectories, so there is no sampling
// and no seed.
func ExactNoisyDistribution(c *Circuit, m *NoiseModel) Dist {
	return metrics.NewDist(densmat.Simulate(c, m))
}

// CountsDist converts a shot histogram into a distribution over the
// circuit's outcome space. Deterministic in its inputs.
func CountsDist(counts map[uint64]int, numQubits int) Dist {
	return metrics.FromCounts(counts, 1<<uint(numQubits))
}

// NormalizedFidelity computes the paper's Equation 9 metric.
// Deterministic in its two distributions.
func NormalizedFidelity(ideal, output Dist) float64 {
	return metrics.NormalizedFidelity(ideal, output)
}

// Comparison reports a baseline-versus-TQSim run on one circuit — the
// measurement underlying Figures 11 and 14.
type Comparison struct {
	// CircuitName, Width and Gates identify the workload.
	CircuitName string
	Width       int
	Gates       int
	// Structure is the DCP tree, e.g. "(464,3)".
	Structure string
	// Shots is the requested shot count; Outcomes the tree's leaf count.
	Shots    int
	Outcomes int
	// BaselineTime and TQSimTime are wall-clock durations.
	BaselineTime time.Duration
	TQSimTime    time.Duration
	// Speedup is BaselineTime / TQSimTime.
	Speedup float64
	// WorkRatio is TQSim kernel work over baseline kernel work — the
	// machine-independent speedup predictor. The tree side includes the
	// executor's quiet-segment reuse (and the cost of its spine); the
	// statevec baseline is the per-shot trajectory simulator, which reuses
	// nothing.
	WorkRatio float64
	// BaselineFidelity and TQSimFidelity are normalized fidelities versus
	// the ideal distribution (Equation 9).
	BaselineFidelity float64
	TQSimFidelity    float64
	// FidelityDiff is |BaselineFidelity - TQSimFidelity| (Figure 14's
	// y-axis).
	FidelityDiff float64
	// TQSimPeakBytes is TQSim's peak state memory (Figure 9's x-axis).
	TQSimPeakBytes int64
}

// Compare runs both simulators on the circuit and reports speedup and
// fidelity agreement. A zero or "auto" Backend is resolved through the
// planner once, against the DCP plan, and the same concrete engine then
// runs both sides — comparing a statevec baseline against a tableau tree
// would measure an engine swap, not the tree reuse. What the tree side
// reuses is everything the executor does: the shared prefixes of the plan
// and, on statevec under Pauli noise, quiet segments inside the run. The
// statevec baseline stays the independent per-shot simulator.
func Compare(c *Circuit, m *NoiseModel, shots int, opt Options) (*Comparison, error) {
	opt = opt.autoDefault()
	if opt.backendName() == AutoBackend {
		r, err := planner.Resolve(PlanDCP(c, m, shots, opt), m, AutoBackend, opt.plannerBudget())
		if err != nil {
			return nil, err
		}
		opt.Backend, opt.Parallelism, opt.ClusterNodes = r.Backend, r.Parallelism, r.ClusterNodes
	}
	base, err := RunBaselineBackend(c, m, shots, opt)
	if err != nil {
		return nil, err
	}
	tq, err := RunTQSim(c, m, shots, opt)
	if err != nil {
		return nil, err
	}
	ideal := IdealDistribution(c)
	baseF := NormalizedFidelity(ideal, CountsDist(base.Counts, c.NumQubits))
	// The tree over-provisions outcomes (the arity product rounds up past
	// the requested shots). Fidelity estimated from a histogram carries a
	// sample-size-dependent bias, so compare equal-size samples: thin the
	// tree's outcomes down to the baseline's shot count.
	tqCounts := SubsampleCounts(tq.Counts, shots, rng.SeedAt(opt.Seed, 0x5eed))
	tqF := NormalizedFidelity(ideal, CountsDist(tqCounts, c.NumQubits))
	diff := baseF - tqF
	if diff < 0 {
		diff = -diff
	}
	cmp := &Comparison{
		CircuitName:      c.Name,
		Width:            c.NumQubits,
		Gates:            c.Len(),
		Structure:        tq.Structure,
		Shots:            shots,
		Outcomes:         tq.Outcomes,
		BaselineTime:     base.Elapsed,
		TQSimTime:        tq.Elapsed,
		Speedup:          core.Speedup(base.Elapsed, tq.Elapsed),
		BaselineFidelity: baseF,
		TQSimFidelity:    tqF,
		FidelityDiff:     diff,
		TQSimPeakBytes:   tq.PeakStateBytes,
	}
	// Normalize work to a common outcome count: the baseline ran `shots`
	// trajectories while the tree produced tq.Outcomes leaves.
	basePerOutcome := float64(base.GateApplications) / float64(base.Shots)
	tqPerOutcome := float64(tq.GateApplications) / float64(tq.Outcomes)
	if basePerOutcome > 0 {
		cmp.WorkRatio = tqPerOutcome / basePerOutcome
	}
	return cmp, nil
}

// SubsampleCounts draws `target` outcomes from a histogram without
// replacement (deterministic for a given seed). The result is always a
// fresh map — histograms at or below the target are returned as a copy, so
// callers may mutate the result without corrupting the input. Fidelity
// estimated from a histogram carries a sample-size-dependent bias, so
// comparisons should thin both sides to a common count — Compare does this
// automatically.
func SubsampleCounts(counts map[uint64]int, target int, seed uint64) map[uint64]int {
	total := 0
	for _, v := range counts {
		total += v
	}
	if total <= target {
		out := make(map[uint64]int, len(counts))
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
	// Expand to a flat outcome list (sorted keys — map iteration order
	// would break seed determinism) and take a partial Fisher-Yates
	// prefix. Shot counts are a few thousand, so this stays cheap.
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	flat := make([]uint64, 0, total)
	for _, k := range keys {
		for i := 0; i < counts[k]; i++ {
			flat = append(flat, k)
		}
	}
	r := rng.New(seed)
	out := make(map[uint64]int, len(counts))
	for i := 0; i < target; i++ {
		j := i + r.Intn(total-i)
		flat[i], flat[j] = flat[j], flat[i]
		out[flat[i]]++
	}
	return out
}

// ProfileCopyCost measures this host's state-copy cost in gate-equivalents
// at the given width (Figure 10's normalization). reps controls averaging.
// This is the one deliberately host-dependent entry point: it times real
// copies and kernels, so its result varies across machines and runs. Feed
// it into Options.CopyCost for locally tuned plans, or leave CopyCost zero
// for the fixed default when cross-host plan reproducibility matters.
func ProfileCopyCost(qubits, reps int) float64 {
	return core.ProfileCopyCost(qubits, reps).Ratio
}
