// Package planner turns "which engine should run this job?" from a caller
// decision into a computed one. Given a simulation-tree plan, a noise model
// and a resource budget, Decide inspects the plan — register width, Clifford
// prefix length, noise class, and the hpcmodel cost/memory estimates — and
// selects a backend, a worker count, and (for the sharded engine) a shard
// count. The result is an explainable Decision: every registered engine
// appears as a Candidate with its cost estimate and, when rejected, the
// reason, so CLI tools and the tqsimd service can show *why* a job landed on
// an engine instead of silently picking one.
//
// The planner is deterministic in (plan, noise, budget, worker count): the
// same inputs always produce the same Decision. With Budget.Parallelism 0
// the worker count defaults to the host's GOMAXPROCS, so decisions agree
// across hosts only when Parallelism is pinned (tqsimd pins it before
// planning); within one process repeated calls always agree. The chosen
// *backend* is worker-count-independent except through a memory budget's
// worker clamp. Cost estimates are in abstract work units (amplitude
// touches for dense engines, tableau word operations scaled by WordOpCost
// for the stabilizer engine); they order engines, they do not predict
// wall-clock.
package planner

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"tqsim/internal/circuit"
	"tqsim/internal/cluster"
	"tqsim/internal/core"
	"tqsim/internal/densmat"
	"tqsim/internal/hpcmodel"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/stabilizer"
	"tqsim/internal/statevec"
)

// Cost-model constants. These encode the dispatch policy; the decision-table
// test in planner_test.go pins the choices they imply.
const (
	// WordOpCost scales tableau word operations into the same abstract unit
	// as dense amplitude touches. Tableau updates are cache-resident integer
	// ops; amplitude passes stream complex128s from memory, so a word op is
	// cheaper than an amplitude touch.
	WordOpCost = 0.25
	// HybridOverhead is the fixed fraction of the dense tree cost charged to
	// the stabilizer hybrid path for shadow bookkeeping plus the one-off
	// tableau→state-vector conversion at handoff. The hybrid therefore wins
	// exactly when the Clifford prefix covers more than this fraction of the
	// tree's gate work.
	HybridOverhead = 0.15
	// FusionDiscount is the dense-cost fraction fusion saves per fusible
	// one-qubit gate on ideal runs. Under noise every gate is followed by a
	// channel that flushes the fusion buffer, so the discount applies only
	// to ideal models; noisy runs instead pay FusionNoisePenalty.
	FusionDiscount = 0.35
	// FusionNoisePenalty is the buffer-management overhead fusion pays when
	// per-gate noise forces a flush after every gate.
	FusionNoisePenalty = 0.02
	// ClusterPenalty keeps cluster from being auto-selected unless the
	// caller asked for shards (Budget.ClusterNodes > 0): on a single host it
	// runs statevec's kernels and only adds the traffic booking.
	ClusterPenalty = 0.20
)

// Execution modes of the engines that have more than one (Candidate.Mode,
// Decision.Mode, Resolved.Mode); every other engine's mode is "".
const (
	// ModeTableauTree runs the whole tree on CHP tableaux.
	ModeTableauTree = "tableau-tree"
	// ModeHybrid shadows the Clifford prefix on tableaux and hands off to the
	// dense kernels at the first non-Clifford gate.
	ModeHybrid = "hybrid-handoff"
)

// Budget carries the resource knobs the planner honors.
type Budget struct {
	// MemoryBytes caps a candidate's estimated peak state memory
	// (0 = unlimited). Dense candidates shed workers to fit; a candidate
	// that cannot fit even single-threaded is rejected.
	MemoryBytes int64
	// Parallelism fixes the worker count (0 = the planner picks
	// min(GOMAXPROCS, first-level arity)).
	Parallelism int
	// ClusterNodes requests the sharded engine with that many virtual nodes
	// (0 = no preference; cluster then only runs if explicitly selected).
	// The run gets cluster.Shards(ClusterNodes, width) of them.
	ClusterNodes int
	// FullWalk says the run will be a core.Executor.FullWalk one (a sweep's
	// NoReuse reference), so dense peak estimates leave the quiet-segment
	// reuse states out. Engine and worker decisions do not read it.
	FullWalk bool
	// Observable says the run evaluates a Hamiltonian on dense leaf states
	// (Resolved.Executor + RunExpectation) instead of sampling: Resolve then
	// maps "auto" to the dense reference engine and never routes to the
	// tableau tree. Decide does not read it.
	Observable bool
}

// Candidate records one engine the planner evaluated.
type Candidate struct {
	// Backend is the registry name the candidate would select.
	Backend string
	// Mode distinguishes execution modes sharing a registry name
	// ("tableau-tree" vs "hybrid-handoff" for the stabilizer engine).
	Mode string
	// Viable reports whether the engine can run the plan within budget.
	Viable bool
	// Reason explains a rejection, or summarizes the estimate for a viable
	// candidate.
	Reason string
	// EstCost is the abstract work estimate (see the package comment);
	// meaningful only for viable candidates.
	EstCost float64
	// EstPeakBytes is the estimated peak state memory at the candidate's
	// worker count.
	EstPeakBytes int64
	// Parallelism is the worker count the candidate would use (possibly
	// memory-clamped below the requested count).
	Parallelism int
}

// Decision is the planner's explainable output: the chosen engine plus
// every candidate it beat.
type Decision struct {
	// Backend is the chosen registry name.
	Backend string
	// Mode is the chosen candidate's execution mode (see Candidate.Mode).
	Mode string
	// Parallelism is the chosen worker count.
	Parallelism int
	// ClusterNodes is the shard count the run uses (cluster.Shards) when
	// Backend is "cluster"; 0 otherwise.
	ClusterNodes int
	// EstCost and EstPeakBytes echo the chosen candidate's estimates.
	EstCost      float64
	EstPeakBytes int64
	// Width, TotalGates, CliffordPrefix, CliffordOnly and PauliNoise record
	// the plan facts the decision was computed from.
	Width          int
	TotalGates     int
	CliffordPrefix int
	CliffordOnly   bool
	PauliNoise     bool
	// Candidates lists every engine evaluated, in evaluation order; the
	// chosen one has Backend == Decision.Backend and Viable == true.
	Candidates []Candidate
	// Why is a one-line human explanation of the choice.
	Why string
}

// Rejected returns the candidates that were not viable.
func (d *Decision) Rejected() []Candidate {
	var out []Candidate
	for _, c := range d.Candidates {
		if !c.Viable {
			out = append(out, c)
		}
	}
	return out
}

// String renders the decision and the full candidate table, one line each —
// the -explain output of cmd/tqsim and the tqsimd plan endpoint.
func (d *Decision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "planner: %s", d.Why)
	for _, c := range d.Candidates {
		mark := "rejected"
		if c.Viable {
			mark = fmt.Sprintf("cost %.3g, peak %s, workers %d",
				c.EstCost, hpcmodel.FormatBytes(float64(c.EstPeakBytes)), c.Parallelism)
		}
		name := c.Backend
		if c.Mode != "" {
			name += "/" + c.Mode
		}
		fmt.Fprintf(&b, "\n  %-26s %s: %s", name, mark, c.Reason)
	}
	return b.String()
}

// CliffordPrefixLen returns the number of leading gates drawn from the
// stabilizer engine's Clifford set — the segment the hybrid dispatcher can
// shadow on tableaux before materializing dense amplitudes.
func CliffordPrefixLen(c *circuit.Circuit) int {
	for i, g := range c.Gates {
		if !stabilizer.IsCliffordKind(g.Kind) {
			return i
		}
	}
	return len(c.Gates)
}

// analysis gathers the plan facts every candidate evaluation shares.
type analysis struct {
	plan     *partition.Plan
	n        int
	levels   int
	gateWork float64 // tree gate applications (Equation 3 accounting)
	copyWork float64 // tree state copies
	outcomes float64
	prefix   int
	total    int
	clifford bool
	pauli    bool
	model    *noise.Model
	// denseAmps is 2^n as a float (safe beyond 63 qubits).
	denseAmps float64
	// denseCost is the dense-engine tree cost: every gate application and
	// every state copy streams the full amplitude array once.
	denseCost float64
	workers   int // requested worker count before memory clamping
	frac1q    float64
}

func analyze(p *partition.Plan, m *noise.Model, b Budget) analysis {
	c := p.Circuit
	a := analysis{
		plan:     p,
		n:        c.NumQubits,
		levels:   p.Levels(),
		gateWork: float64(p.GateWork()),
		copyWork: float64(p.CopyWork()),
		outcomes: float64(p.TotalOutcomes()),
		prefix:   CliffordPrefixLen(c),
		total:    c.Len(),
		pauli:    m.PauliOnly(),
		model:    m,
	}
	a.clifford = a.prefix == a.total
	a.denseAmps = math.Pow(2, float64(a.n))
	a.denseCost = (a.gateWork + a.copyWork) * a.denseAmps
	a.workers = b.Parallelism
	if a.workers < 1 {
		a.workers = runtime.GOMAXPROCS(0)
	}
	if a.workers > p.Arities[0] {
		a.workers = p.Arities[0]
	}
	oneQ := 0
	for _, g := range c.Gates {
		if g.Arity() == 1 {
			oneQ++
		}
	}
	if a.total > 0 {
		a.frac1q = float64(oneQ) / float64(a.total)
	}
	return a
}

// densePeakBytes is the named dense engine's peak amplitude memory at a
// worker count — core.DensePeakBytes, the rule the executor itself applies
// and reports, quiet-segment reuse (the plan's whole spine, interior
// checkpoints included) and its budget test included, so admission estimates
// and observed PeakStateBytes agree.
func (a analysis) densePeakBytes(backend string, workers int, b Budget) int64 {
	reusable := core.QuietReuse(backend, a.model) && !b.FullWalk
	peak, _ := core.DensePeakBytes(a.plan, workers, reusable, b.MemoryBytes)
	return peak
}

// fitDense memory-clamps a dense candidate: sheds workers until the peak
// fits the budget, or reports infeasibility. DensePeakBytes drops reuse
// before it lets reuse overrun the budget, so the worker count is decided
// by the base footprint alone. It mirrors the admission arithmetic tqsimd
// uses, so service rejections and planner rejections agree.
func (a analysis) fitDense(backend string, b Budget) (workers int, peak int64, ok bool) {
	workers = a.workers
	peak = a.densePeakBytes(backend, workers, b)
	if b.MemoryBytes <= 0 {
		return workers, peak, true
	}
	for workers > 1 && peak > b.MemoryBytes {
		workers--
		peak = a.densePeakBytes(backend, workers, b)
	}
	return workers, peak, peak <= b.MemoryBytes
}

// Decide selects an engine, worker count and shard count for the plan under
// the noise model and budget. The returned Decision always carries the full
// candidate table; the error (no engine can run the plan) summarizes it and
// includes the hpcmodel memory estimate — the same number an explicit run's
// width diagnosis (Resolved.Executor) reports — so auto and explicit errors
// agree.
func Decide(p *partition.Plan, m *noise.Model, b Budget) (*Decision, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := analyze(p, m, b)
	d := &Decision{
		Width:          a.n,
		TotalGates:     a.total,
		CliffordPrefix: a.prefix,
		CliffordOnly:   a.clifford,
		PauliNoise:     a.pauli,
	}

	d.Candidates = append(d.Candidates,
		candTableau(a, b),
		candHybrid(a, b),
		candDense(a, b, "statevec", a.denseCost,
			"dense state-vector kernels; the conformance reference"),
		candFusion(a, b, m),
		candCluster(a, b),
		candDensmat(a),
	)

	best := -1
	for i, c := range d.Candidates {
		if !c.Viable {
			continue
		}
		// Budget.ClusterNodes is an explicit shard request: cluster wins
		// outright when viable.
		if b.ClusterNodes > 0 && c.Backend == "cluster" {
			best = i
			break
		}
		if best < 0 || c.EstCost < d.Candidates[best].EstCost {
			best = i
		}
	}
	if best < 0 {
		return d, fmt.Errorf(
			"planner: no engine can run %d qubits under noise %s (dense state vector ≈ %s): %s",
			a.n, m.Name(), hpcmodel.FormatBytes(hpcmodel.StatevectorBytes(a.n)),
			rejectionSummary(d.Candidates))
	}
	chosen := d.Candidates[best]
	d.Backend = chosen.Backend
	d.Mode = chosen.Mode
	d.Parallelism = chosen.Parallelism
	d.EstCost = chosen.EstCost
	d.EstPeakBytes = chosen.EstPeakBytes
	if chosen.Backend == "cluster" {
		d.ClusterNodes = cluster.Shards(b.ClusterNodes, a.n)
	}
	d.Why = fmt.Sprintf("%s (%s): %s", d.Backend, modeOrDefault(chosen), chosen.Reason)
	return d, nil
}

func modeOrDefault(c Candidate) string {
	if c.Mode != "" {
		return c.Mode
	}
	return "dense-tree"
}

func rejectionSummary(cands []Candidate) string {
	parts := make([]string, 0, len(cands))
	for _, c := range cands {
		if !c.Viable {
			parts = append(parts, c.Backend+": "+c.Reason)
		}
	}
	return strings.Join(parts, "; ")
}

// tableauBlocker is the tableau-tree routing predicate, stated as the reason
// it fails: "" means the plan is Clifford-only under Pauli-only (or ideal)
// noise, so the whole tree can run on tableaux. candTableau and Resolve's
// explicit-"stabilizer" routing both read it, so auto and explicit runs
// cannot disagree about which stabilizer mode a plan gets.
func (a analysis) tableauBlocker() string {
	switch {
	case !a.clifford:
		return fmt.Sprintf("non-Clifford gate at index %d of %d", a.prefix, a.total)
	case !a.pauli:
		return "noise is not Pauli-only; tableaux cannot absorb it"
	}
	return ""
}

// candTableau evaluates the pure-tableau stabilizer path: the whole tree on
// CHP tableaux, polynomial in width.
func candTableau(a analysis, b Budget) Candidate {
	c := Candidate{Backend: "stabilizer", Mode: ModeTableauTree, Parallelism: a.workers}
	switch why := a.tableauBlocker(); {
	case why != "":
		c.Reason = why
	case a.n > stabilizer.MaxTreeQubits:
		c.Reason = fmt.Sprintf("%d qubits exceeds the %d-qubit outcome packing limit",
			a.n, stabilizer.MaxTreeQubits)
	default:
		c.Viable = true
		nn := float64(a.n)
		// Gate updates are O(n) row sweeps, copies O(n^2/64) words, each
		// leaf measurement O(n^2).
		c.EstCost = WordOpCost * (a.gateWork*nn + a.copyWork*nn*nn/64 + a.outcomes*nn*nn)
		c.EstPeakBytes = a.peakBytes(c.Backend, c.Mode, a.workers, b)
		c.Reason = "Clifford-only circuit under Pauli noise runs entirely on tableaux"
		if b.MemoryBytes > 0 && c.EstPeakBytes > b.MemoryBytes {
			// Tableaux are tiny; a budget below one tableau set is degenerate
			// but must still reject cleanly.
			c.Viable = false
			c.Reason = fmt.Sprintf("tableau peak %s exceeds budget %s",
				hpcmodel.FormatBytes(float64(c.EstPeakBytes)), hpcmodel.FormatBytes(float64(b.MemoryBytes)))
		}
	}
	return c
}

// candHybrid evaluates the stabilizer hybrid path: Clifford prefix on
// tableaux, dense kernels after handoff. Histograms are byte-identical to
// statevec because the handoff precedes sampling.
func candHybrid(a analysis, b Budget) Candidate {
	c := Candidate{Backend: "stabilizer", Mode: ModeHybrid}
	switch {
	case a.clifford:
		c.Reason = "circuit is Clifford-only; the tableau-tree mode subsumes the hybrid"
	case !a.pauli:
		c.Reason = "non-Pauli noise materializes dense amplitudes at the first noisy gate"
	case a.prefix == 0:
		c.Reason = "no Clifford prefix to shadow"
	default:
		// After the handoff the run is a dense one: same limit, same fit.
		prefFrac := float64(a.prefix) / float64(a.total)
		c = candDense(a, b, c.Backend, a.denseCost*(1-prefFrac+HybridOverhead), fmt.Sprintf(
			"%d/%d-gate Clifford prefix shadowed on tableaux before dense handoff", a.prefix, a.total))
		c.Mode = ModeHybrid
	}
	return c
}

func candDense(a analysis, b Budget, name string, cost float64, why string) Candidate {
	c := Candidate{Backend: name}
	if a.n > statevec.MaxQubits {
		c.Reason = fmt.Sprintf("%d qubits exceeds the %d-qubit dense limit (state vector ≈ %s)",
			a.n, statevec.MaxQubits, hpcmodel.FormatBytes(hpcmodel.StatevectorBytes(a.n)))
		return c
	}
	workers, peak, ok := a.fitDense(name, b)
	if !ok {
		c.Reason = overBudget(peak, b)
		return c
	}
	c.Viable = true
	c.Parallelism = workers
	c.EstPeakBytes = peak
	c.EstCost = cost
	c.Reason = why
	return c
}

func candFusion(a analysis, b Budget, m *noise.Model) Candidate {
	if m.Ideal() {
		cost := a.denseCost * (1 - FusionDiscount*a.frac1q)
		return candDense(a, b, "fusion", cost, fmt.Sprintf(
			"ideal run fuses the %.0f%% one-qubit gates into neighbors", 100*a.frac1q))
	}
	cost := a.denseCost * (1 + FusionNoisePenalty)
	return candDense(a, b, "fusion", cost,
		"per-gate noise flushes the fusion buffer after every gate; no fusion wins")
}

func candCluster(a analysis, b Budget) Candidate {
	why := fmt.Sprintf("single-host shard exchanges add ~%.0f%% overhead; select explicitly or set ClusterNodes", 100*ClusterPenalty)
	if b.ClusterNodes > 0 {
		why = fmt.Sprintf("explicit request for %d shards", cluster.Shards(b.ClusterNodes, a.n))
	}
	return candDense(a, b, "cluster", a.denseCost*(1+ClusterPenalty), why)
}

// candDensmat is policy-rejected for auto dispatch: the exact engine samples
// from the noise-averaged distribution, so its histograms carry no
// trajectory error and differ from every trajectory engine's at the same
// seed. Auto-selection must preserve trajectory sampling semantics; callers
// who want exactness select "densmat" explicitly.
func candDensmat(a analysis) Candidate {
	c := Candidate{Backend: "densmat"}
	if a.n > densmat.MaxQubits {
		c.Reason = fmt.Sprintf("%d qubits exceeds the %d-qubit density-matrix limit (ρ ≈ %s)",
			a.n, densmat.MaxQubits, hpcmodel.FormatBytes(hpcmodel.DensityMatrixBytes(a.n)))
		return c
	}
	c.EstCost = a.gateWork / a.outcomes * a.denseAmps * a.denseAmps
	c.Reason = "exact-distribution engine changes sampling semantics (no trajectory error); select explicitly"
	return c
}

// WorkerSlots returns how many shards of a job a worker can execute
// concurrently under its advertised memory budget: budget / estPeak,
// clamped to the worker's execution slots. estPeak is the job's admission
// estimate (Resolved.EstPeakBytes, built on core.DensePeakBytes /
// stabilizer.TableauBytes). A zero budget means
// unlimited memory; a zero return means the job can never be placed on
// that worker, however idle it is — the distributed coordinator uses this
// to skip workers a job cannot fit on instead of dispatching shards that
// would bounce off the worker's own admission control.
func WorkerSlots(estPeak, budgetBytes int64, maxConcurrent int) int {
	if maxConcurrent <= 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	if budgetBytes <= 0 || estPeak <= 0 {
		return maxConcurrent
	}
	slots := budgetBytes / estPeak
	if slots > int64(maxConcurrent) {
		return maxConcurrent
	}
	return int(slots)
}

func overBudget(peak int64, b Budget) string {
	return fmt.Sprintf("estimated peak %s exceeds the %s memory budget even single-threaded",
		hpcmodel.FormatBytes(float64(peak)), hpcmodel.FormatBytes(float64(b.MemoryBytes)))
}
