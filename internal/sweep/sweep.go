// Package sweep implements the parameter/noise sweep engine: a first-class
// grid workload over (circuit family × noise axis × shots × partition ×
// repeats) points, where every point routes through internal/planner and
// the grid executes with cross-point reuse.
//
// Two reuse levels extend the paper's intra-tree redundancy elimination to
// the inter-point level:
//
//   - Plan/decision reuse: points sharing a circuit structure share one
//     partition plan and one planner Decision — a plan is built once per
//     distinct (circuit, noise-if-it-shapes-the-plan, shots, partitioner)
//     key, not once per point, so repeat and noise axes hit the cache.
//   - Spine sharing: the dense executor reuses quiet segments inside every
//     run (core.Executor), which needs the ideal state at each spine cut
//     (core.PrefixSnapshots). Those states depend only on the gate prefix
//     before the cut, so every point takes its spine from one
//     core.SnapshotCache — the sweep's own, or tqsimd's — instead of each
//     reusing run computing its own: one ideal pass saved per point.
//
// Determinism contract: point i runs at the derived seed
// rng.SeedAt(Spec.Seed, i) and its histogram is a pure function of (spec,
// i) — byte-identical to running the point standalone (tqsim.RunTQSim /
// tqsim.RunBackend at that seed), with reuse on or off, at any concurrency,
// and whether the points ran in one process or were sharded across tqsimd
// workers. That identity is what makes the reuse safe: it changes the work
// accounting, never the samples.
//
// Prepare plans the grid and resolves every distinct (plan, noise) cell to a
// planner.Resolved, the value a facade run or a tqsimd job also executes.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"tqsim/internal/circuit"
	"tqsim/internal/core"
	"tqsim/internal/metrics"
	"tqsim/internal/noise"
	"tqsim/internal/observable"
	"tqsim/internal/partition"
	"tqsim/internal/planner"
	"tqsim/internal/qasm"
	"tqsim/internal/rng"
	"tqsim/internal/trajectory"
	"tqsim/internal/workloads"
)

// MaxPoints caps a sweep's expanded grid; beyond it Prepare errors instead
// of silently planning an absurd workload.
const MaxPoints = 1 << 16

// NoisePoint is one value on the noise axis: either a named model (the
// paper's DC/DCR/TR/TRR/AD/ADR/PD/PDR/ALL set, or "ideal") or an anonymous
// depolarizing model at explicit rates.
type NoisePoint struct {
	// Name selects a named model; empty selects depolarizing at P1/P2
	// (both zero = ideal).
	Name string `json:"name,omitempty"`
	// P1 and P2 are the one- and two-qubit depolarizing rates used when
	// Name is empty.
	P1 float64 `json:"p1,omitempty"`
	P2 float64 `json:"p2,omitempty"`
}

// Model constructs the noise model (nil = ideal).
func (np NoisePoint) Model() *noise.Model {
	if np.Name != "" {
		return noise.ByName(np.Name)
	}
	if np.P1 == 0 && np.P2 == 0 {
		return nil
	}
	return noise.NewDepolarizing(np.P1, np.P2)
}

// Label renders the axis value for reports and cache keys. Prepare has
// already replaced a named point's Name by its canonical spelling, so "dc"
// and "DC" share one cache entry.
func (np NoisePoint) Label() string {
	switch {
	case np.Name != "":
		return np.Name
	case np.P1 == 0 && np.P2 == 0:
		return "ideal"
	default:
		return fmt.Sprintf("depol(%g,%g)", np.P1, np.P2)
	}
}

// canonical validates the point and returns it with a named model's Name in
// noise.Lookup's canonical spelling.
func (np NoisePoint) canonical() (NoisePoint, error) {
	if np.Name != "" && (np.P1 != 0 || np.P2 != 0) {
		return np, fmt.Errorf("noise point %q also sets p1/p2; use one or the other", np.Name)
	}
	if np.P1 < 0 || np.P1 > 1 || np.P2 < 0 || np.P2 > 1 {
		return np, fmt.Errorf("depolarizing rates must be in [0,1], got p1=%g p2=%g", np.P1, np.P2)
	}
	if np.Name != "" {
		m, ok := noise.Lookup(np.Name)
		if !ok {
			return np, fmt.Errorf("unknown noise model %q", np.Name)
		}
		np.Name = m.Name()
	}
	return np, nil
}

// PartitionSpec is one value on the partitioner axis.
type PartitionSpec struct {
	// Strategy selects the partitioner: "dcp" (default), "ucp", "xcp", or
	// "structure" (explicit arities).
	Strategy string `json:"strategy,omitempty"`
	// Levels is the subcircuit count for ucp/xcp (default 3).
	Levels int `json:"levels,omitempty"`
	// Structure is the explicit arity tuple for strategy "structure".
	Structure []int `json:"structure,omitempty"`
	// Bounds optionally pins the subcircuit cut points for strategy
	// "structure" (len = len(Structure)-1); empty cuts equal-length
	// subcircuits. This is how a sweep holds one externally derived tree —
	// e.g. the paper's §5.5 DC-derived plan — fixed across a noise axis:
	// copy a plan's Bounds and Arities into one partition entry.
	Bounds []int `json:"bounds,omitempty"`
}

// Label renders the axis value for reports and cache keys.
func (ps PartitionSpec) Label() string {
	switch ps.strategy() {
	case "dcp":
		return "DCP"
	case "ucp":
		return fmt.Sprintf("UCP:%d", ps.levels())
	case "xcp":
		return fmt.Sprintf("XCP:%d", ps.levels())
	default:
		parts := make([]string, len(ps.Structure))
		for i, a := range ps.Structure {
			parts[i] = fmt.Sprint(a)
		}
		label := "(" + strings.Join(parts, ",") + ")"
		if len(ps.Bounds) > 0 {
			// Pinned cut points are part of the plan identity: two specs
			// with equal arities but different bounds must not share a
			// plan-cache key (Label doubles as that key).
			cuts := make([]string, len(ps.Bounds))
			for i, b := range ps.Bounds {
				cuts[i] = fmt.Sprint(b)
			}
			label += "@" + strings.Join(cuts, ",")
		}
		return label
	}
}

func (ps PartitionSpec) strategy() string {
	if ps.Strategy == "" {
		return "dcp"
	}
	return strings.ToLower(ps.Strategy)
}

func (ps PartitionSpec) levels() int {
	if ps.Levels <= 0 {
		return 3
	}
	return ps.Levels
}

// noiseShapesPlan reports whether the partitioner consults the noise model
// (only DCP sizes A0 from the segment error rate); noise-independent
// strategies share one plan across the whole noise axis.
func (ps PartitionSpec) noiseShapesPlan() bool { return ps.strategy() == "dcp" }

// plan builds the partition plan for one (circuit, noise, shots) cell.
func (ps PartitionSpec) plan(c *circuit.Circuit, m *noise.Model, shots int, opt partition.DCPOptions) (*partition.Plan, error) {
	switch ps.strategy() {
	case "dcp":
		return partition.Dynamic(c, m, shots, opt), nil
	case "ucp":
		if c.Len() < ps.levels() {
			return nil, fmt.Errorf("ucp: circuit %s has %d gates, fewer than %d levels", c.Name, c.Len(), ps.levels())
		}
		return partition.Uniform(c, shots, ps.levels()), nil
	case "xcp":
		if c.Len() < ps.levels() {
			return nil, fmt.Errorf("xcp: circuit %s has %d gates, fewer than %d levels", c.Name, c.Len(), ps.levels())
		}
		return partition.Exponential(c, shots, ps.levels())
	case "structure":
		if len(ps.Structure) == 0 {
			return nil, errors.New("structure partition needs a non-empty arity tuple")
		}
		if c.Len() < len(ps.Structure) {
			return nil, fmt.Errorf("structure: circuit %s has %d gates, fewer than %d levels", c.Name, c.Len(), len(ps.Structure))
		}
		p := partition.FromStructure(c, ps.Structure)
		if len(ps.Bounds) > 0 {
			p.Bounds = slices.Clone(ps.Bounds)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("structure: %w", err)
		}
		return p, nil
	default:
		return nil, fmt.Errorf("unknown partition strategy %q (have dcp, ucp, xcp, structure)", ps.Strategy)
	}
}

// Spec describes a sweep: one circuit source (or an explicit circuit axis),
// the grid axes, the seed policy, and the execution options every point
// shares. The zero values of the axis fields select a single-point default
// (DC noise, DCP partition, one repeat).
type Spec struct {
	// QASM is an OpenQASM 2.0 program (exactly one of QASM, Circuit, or
	// Circuits selects the circuit source).
	QASM string `json:"qasm,omitempty"`
	// Circuit names a benchmark-suite circuit (e.g. "qft_n12").
	Circuit string `json:"circuit,omitempty"`
	// Circuits is a Go-API-only circuit axis (e.g. a variational ansatz
	// family); it does not cross the wire.
	Circuits []*circuit.Circuit `json:"-"`

	// Noise is the noise axis (default: the DC model).
	Noise []NoisePoint `json:"noise,omitempty"`
	// Shots is the shot-budget axis (at least one positive entry).
	Shots []int `json:"shots"`
	// Partitions is the partitioner axis (default: DCP). Ignored in
	// baseline mode, which always runs the flat plan.
	Partitions []PartitionSpec `json:"partitions,omitempty"`
	// Repeats runs each grid cell this many times at distinct derived
	// seeds (default 1) — the replication axis of sensitivity studies.
	Repeats int `json:"repeats,omitempty"`

	// Seed is the base seed; point i runs at rng.SeedAt(Seed, i).
	Seed uint64 `json:"seed,omitempty"`
	// Mode is "tqsim" (tree reuse, default) or "baseline" (flat plan).
	Mode string `json:"mode,omitempty"`
	// Backend picks the engine by registry name or "auto" (default):
	// every point's plan routes through the planner either way.
	Backend string `json:"backend,omitempty"`
	// Fidelity requests the per-point normalized fidelity versus the
	// circuit's ideal distribution (computed once per circuit).
	Fidelity bool `json:"fidelity,omitempty"`
	// NoReuse runs every point as a full tree walk: no ideal spine, shared
	// or the run's own, and no quiet children (plan dedupe still applies).
	// Per-point histograms are byte-identical either way — the switch is
	// the reference side of A/B work measurements and regression tests.
	NoReuse bool `json:"no_reuse,omitempty"`
	// Concurrency runs up to this many points in parallel (default 1).
	// Histograms are unaffected; only completion order changes.
	Concurrency int `json:"concurrency,omitempty"`

	// Observable, when set, evaluates the ensemble expectation of this
	// Hamiltonian at every point instead of sampling histograms (the VQA
	// workflow). Go-API-only.
	Observable *observable.Hamiltonian `json:"-"`

	// CopyCost, MaxLevels, MemoryBudgetBytes, Parallelism, Epsilon and
	// ClusterNodes mirror tqsim.Options (zero = defaults). CopyCost zero
	// selects the fixed library default so plans are host-independent.
	CopyCost          float64 `json:"copy_cost,omitempty"`
	MaxLevels         int     `json:"max_levels,omitempty"`
	MemoryBudgetBytes int64   `json:"memory_budget_bytes,omitempty"`
	Parallelism       int     `json:"parallelism,omitempty"`
	Epsilon           float64 `json:"epsilon,omitempty"`
	ClusterNodes      int     `json:"cluster_nodes,omitempty"`
}

// GridSize returns how many points the spec's axes expand to — circuits ×
// noise × shots × partitions × repeats, with the same axis defaults Prepare
// applies — without resolving a circuit or planning anything, so a server
// can reject an oversized grid before paying for it. The product saturates
// at MaxPoints+1: hostile axis lengths cannot overflow it.
func (s *Spec) GridSize() int {
	partitions := len(s.Partitions)
	if s.mode() == "baseline" {
		partitions = 1
	}
	total := 1
	for _, axis := range []int{len(s.Circuits), len(s.Noise), len(s.Shots), partitions, s.Repeats} {
		axis = max(axis, 1)
		if axis > MaxPoints || total*axis > MaxPoints {
			return MaxPoints + 1
		}
		total *= axis
	}
	return total
}

func (s *Spec) dcpOptions() partition.DCPOptions {
	return partition.DCPOptions{
		CopyCost:          s.CopyCost,
		Epsilon:           s.Epsilon,
		MaxLevels:         s.MaxLevels,
		MemoryBudgetBytes: s.MemoryBudgetBytes,
	}
}

func (s *Spec) budget() planner.Budget {
	return planner.Budget{
		MemoryBytes:  s.MemoryBudgetBytes,
		Parallelism:  s.Parallelism,
		ClusterNodes: s.ClusterNodes,
		FullWalk:     s.NoReuse,
		Observable:   s.Observable != nil,
	}
}

func (s *Spec) mode() string {
	if s.Mode == "" {
		return "tqsim"
	}
	return s.Mode
}

// Point is one expanded grid cell: the axis coordinates plus the derived
// seed. Points are a pure function of the spec — expansion order is
// circuits × noise × shots × partitions × repeats, row-major.
type Point struct {
	// Index is the point's position in the expanded grid and the input to
	// its seed derivation.
	Index int
	// CircuitIndex selects into the resolved circuit axis.
	CircuitIndex int
	// Noise, Shots and Partition are the cell's axis coordinates.
	Noise     NoisePoint
	Shots     int
	Partition PartitionSpec
	// Rep is the replication index within the cell (0-based).
	Rep int
	// Seed is rng.SeedAt(spec.Seed, Index) — the stream the point runs at.
	Seed uint64
}

// PointResult is one executed point.
type PointResult struct {
	// Index, Circuit, Width, Noise, Shots, Partition, Rep and Seed echo
	// the point's coordinates.
	Index     int
	Circuit   string
	Width     int
	Noise     string
	Shots     int
	Partition string
	Rep       int
	Seed      uint64
	// Backend and Structure report the engine and tree the point ran on.
	Backend   string
	Structure string
	// Outcomes and Counts are the sampled histogram (Counts empty for
	// observable sweeps).
	Outcomes int
	Counts   map[uint64]int
	// GateApplications, StateCopies, PrefixReuseHits and PeakStateBytes
	// carry the executor's work accounting; PrefixReuseHits counts tree
	// nodes served from the ideal spine, which comes from the sweep's cache
	// and is not booked in the point's work.
	GateApplications int64
	StateCopies      int64
	PrefixReuseHits  int64
	PeakStateBytes   int64
	// PlanShared reports whether the point's plan/decision came from the
	// cross-point cache rather than being built for this point alone.
	PlanShared bool
	// Fidelity is the normalized fidelity versus the ideal distribution;
	// valid only when HasFidelity (Spec.Fidelity on a histogram sweep).
	Fidelity    float64
	HasFidelity bool
	// Estimate is the observable estimate for observable sweeps.
	Estimate *observable.EstimateStats
	// Decision is the planner's (shared) decision for the point's plan.
	Decision *planner.Decision
	// Elapsed is the point's wall-clock duration.
	Elapsed time.Duration
}

// Result aggregates a sweep run.
type Result struct {
	// Points holds one entry per executed point, in index order.
	Points []PointResult
	// PlansBuilt is the number of distinct partition plans constructed;
	// DecisionsBuilt the number of distinct planner decisions. Points
	// beyond those counts shared a cached plan/decision.
	PlansBuilt     int
	DecisionsBuilt int
	// GateApplications, StateCopies and PrefixReuseHits total the per-point
	// work accounting.
	GateApplications int64
	StateCopies      int64
	PrefixReuseHits  int64
	// Elapsed is the whole sweep's wall-clock duration.
	Elapsed time.Duration
}

// PlanError marks a Prepare failure that is a resource rejection (the
// planner found no engine that can run a point within budget) rather than a
// malformed spec — services map it to 413 instead of 400.
type PlanError struct{ Err error }

// Error implements error.
func (e *PlanError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying planner error.
func (e *PlanError) Unwrap() error { return e.Err }

// planEntry is one distinct (plan, noise) cell shared by its points.
type planEntry struct {
	run    *planner.Resolved
	points int // how many grid points share this entry
}

// idealEntry lazily builds one circuit's ideal distribution.
type idealEntry struct {
	once sync.Once
	dist metrics.Dist
}

// Prepared is an expanded, validated, fully planned sweep ready to run.
// All plan construction and planner routing happens in Prepare, so
// MaxEstPeakBytes is available for admission control before any execution,
// and Run only executes.
type Prepared struct {
	spec     Spec
	circuits []*circuit.Circuit
	points   []Point
	entries  map[string]*planEntry
	keys     []string // entry key per point index
	plans    int      // distinct partition plans built
	ideals   []idealEntry

	// spines is the cache every point's reusing run takes its ideal spine
	// from: the sweep's own unbounded one unless UseSnapshotCache swapped
	// in a shared one.
	spines *core.SnapshotCache
}

// UseSnapshotCache makes every point take its ideal spine from a shared
// cross-job cache instead of the sweep's own: spine states another job or
// sweep already computed are adopted instead of rebuilt, and states this
// sweep computes are published for the next one. Histograms are unaffected
// — a cached spine is bitwise the one a run would compute. nil keeps the
// sweep's own. Call before RunRange; the serve layer attaches its
// daemon-wide cache here.
func (p *Prepared) UseSnapshotCache(sc *core.SnapshotCache) {
	if sc != nil {
		p.spines = sc
	}
}

// Prepare validates the spec, expands the grid, and builds every distinct
// plan and planner decision once. A *PlanError distinguishes "no engine can
// run this" from spec validation errors.
func Prepare(spec *Spec) (*Prepared, error) {
	s := *spec // normalized copy; the caller's spec is never mutated
	if s.Repeats <= 0 {
		s.Repeats = 1
	}
	if len(s.Noise) == 0 {
		s.Noise = []NoisePoint{{Name: "DC"}}
	}
	if len(s.Partitions) == 0 || s.mode() == "baseline" {
		s.Partitions = []PartitionSpec{{}}
	}
	if s.mode() != "tqsim" && s.mode() != "baseline" {
		return nil, fmt.Errorf("sweep: mode must be tqsim or baseline, not %q", s.Mode)
	}
	if err := planner.CheckBackend(s.Backend); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if len(s.Shots) == 0 {
		return nil, errors.New("sweep: shots axis needs at least one entry")
	}
	for _, n := range s.Shots {
		if n <= 0 {
			return nil, fmt.Errorf("sweep: shots must be positive, got %d", n)
		}
	}
	points := make([]NoisePoint, len(s.Noise))
	for i, np := range s.Noise {
		var err error
		if points[i], err = np.canonical(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	s.Noise = points // canonical names reach plan, store and lease keys

	circuits, err := resolveCircuits(&s)
	if err != nil {
		return nil, err
	}

	if s.GridSize() > MaxPoints {
		return nil, fmt.Errorf("sweep: grid expands to more than the %d-point cap", MaxPoints)
	}

	p := &Prepared{
		spec:     s,
		circuits: circuits,
		entries:  make(map[string]*planEntry),
		ideals:   make([]idealEntry, len(circuits)),
		spines:   core.NewSnapshotCache(0),
	}
	planCache := make(map[string]*partition.Plan)

	// Expand row-major: circuits × noise × shots × partitions × repeats.
	// Repeats are innermost so a cell's replicas are adjacent and the
	// plan/decision cache hits immediately.
	idx := 0
	for ci := range circuits {
		for _, np := range s.Noise {
			for _, shots := range s.Shots {
				for _, part := range s.Partitions {
					for rep := 0; rep < s.Repeats; rep++ {
						pt := Point{
							Index:        idx,
							CircuitIndex: ci,
							Noise:        np,
							Shots:        shots,
							Partition:    part,
							Rep:          rep,
							Seed:         rng.SeedAt(s.Seed, uint64(idx)),
						}
						key, err := p.ensureEntry(planCache, pt)
						if err != nil {
							return nil, err
						}
						p.points = append(p.points, pt)
						p.keys = append(p.keys, key)
						idx++
					}
				}
			}
		}
	}
	p.plans = len(planCache)
	return p, nil
}

func resolveCircuits(s *Spec) ([]*circuit.Circuit, error) {
	sources := 0
	if s.QASM != "" {
		sources++
	}
	if s.Circuit != "" {
		sources++
	}
	if len(s.Circuits) > 0 {
		sources++
	}
	if sources != 1 {
		return nil, errors.New("sweep: provide exactly one of qasm, circuit, or a circuit list")
	}
	switch {
	case s.QASM != "":
		prog, err := qasm.Parse("sweep", s.QASM)
		if err != nil {
			return nil, fmt.Errorf("sweep: qasm: %w", err)
		}
		return []*circuit.Circuit{prog.Circuit}, nil
	case s.Circuit != "":
		c := workloads.ByName(s.Circuit)
		if c == nil {
			return nil, fmt.Errorf("sweep: unknown suite circuit %q", s.Circuit)
		}
		return []*circuit.Circuit{c}, nil
	default:
		return s.Circuits, nil
	}
}

// ensureEntry returns the point's entry key, building the plan (through the
// structural plan cache) and the planner decision on first sight.
func (p *Prepared) ensureEntry(planCache map[string]*partition.Plan, pt Point) (string, error) {
	s := &p.spec
	m := pt.Noise.Model()

	// Structural plan identity: noise participates only when the
	// partitioner consults it, so noise-independent strategies (and the
	// baseline flat plan) share one plan across the whole noise axis.
	planNoise := ""
	if s.mode() == "tqsim" && pt.Partition.noiseShapesPlan() {
		planNoise = pt.Noise.Label()
	}
	planKey := fmt.Sprintf("%d|%s|%d|%s|%s", pt.CircuitIndex, planNoise, pt.Shots, pt.Partition.Label(), s.mode())
	// The decision additionally depends on the point's noise class.
	entryKey := fmt.Sprintf("%s|%s", planKey, pt.Noise.Label())

	if e, ok := p.entries[entryKey]; ok {
		e.points++
		return entryKey, nil
	}

	plan, ok := planCache[planKey]
	if !ok {
		var err error
		c := p.circuits[pt.CircuitIndex]
		if s.mode() == "baseline" {
			plan = partition.Baseline(c, pt.Shots)
		} else if plan, err = pt.Partition.plan(c, m, pt.Shots, s.dcpOptions()); err != nil {
			return "", fmt.Errorf("sweep: %w", err)
		}
		planCache[planKey] = plan
	}

	run, err := planner.Admit(plan, m, s.Backend, s.budget())
	if err != nil {
		return "", &PlanError{Err: fmt.Errorf("sweep point %d (%s): %w", pt.Index, entryKey, err)}
	}
	p.entries[entryKey] = &planEntry{run: run, points: 1}
	return entryKey, nil
}

// NumPoints returns the expanded grid size.
func (p *Prepared) NumPoints() int { return len(p.points) }

// Point returns point i's coordinates.
func (p *Prepared) Point(i int) Point { return p.points[i] }

// Circuit returns the resolved circuit of point i.
func (p *Prepared) Circuit(i int) *circuit.Circuit {
	return p.circuits[p.points[i].CircuitIndex]
}

// Resolved returns the run point i executes: its plan, engine, worker count,
// admission estimate and planner decision, shared by every point of its
// cell.
func (p *Prepared) Resolved(i int) *planner.Resolved { return p.entries[p.keys[i]].run }

// Spec returns the normalized spec (axes defaulted, repeats clamped).
func (p *Prepared) Spec() *Spec { return &p.spec }

// MaxOutcomes returns the largest leaf count of any point's plan — the
// samples a point draws, which a partition axis can push past the shots axis.
func (p *Prepared) MaxOutcomes() int {
	n := 0
	for _, e := range p.entries {
		n = max(n, e.run.Plan.TotalOutcomes())
	}
	return n
}

// MaxEstPeakBytes returns the largest single-point admission estimate —
// the planner's, which already holds the spine and quiet-child states of a
// reusing point whether the spine is shared or the point's own — the number
// services reserve against their memory budget, since points beyond
// Concurrency never run simultaneously.
func (p *Prepared) MaxEstPeakBytes() int64 {
	var maxPeak int64
	for _, e := range p.entries {
		maxPeak = max(maxPeak, e.run.EstPeakBytes)
	}
	return maxPeak
}

// idealDist returns circuit ci's ideal outcome distribution, computed once.
func (p *Prepared) idealDist(ci int) metrics.Dist {
	ie := &p.ideals[ci]
	ie.once.Do(func() {
		c := p.circuits[ci]
		ie.dist = metrics.NewDist(trajectory.IdealState(c).Probabilities())
	})
	return ie.dist
}

// RunRange executes points [from, to) — the distributed coordinator's lease
// unit; (0, NumPoints) is the whole grid. Point seeds and plans come from the
// full grid, so a range run is byte-identical to the same points of a full
// run. onPoint, when non-nil, observes each result as it completes (under an
// internal lock; with Concurrency > 1 completion order is nondeterministic,
// point contents are not); an onPoint error aborts the sweep. The returned
// Result lists points in index order regardless of completion order.
func (p *Prepared) RunRange(ctx context.Context, from, to int, onPoint func(*PointResult) error) (*Result, error) {
	if from < 0 || to > len(p.points) || from > to {
		return nil, fmt.Errorf("sweep: range [%d,%d) outside the %d-point grid", from, to, len(p.points))
	}
	start := time.Now()
	n := to - from
	results := make([]*PointResult, n)

	workers := p.spec.Concurrency
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	indices := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				pr, err := p.runPoint(ctx, i)
				if err != nil {
					fail(err)
					return
				}
				results[i-from] = pr
				if onPoint != nil {
					mu.Lock()
					err := onPoint(pr)
					mu.Unlock()
					if err != nil {
						fail(fmt.Errorf("sweep: point observer: %w", err))
						return
					}
				}
			}
		}()
	}
feed:
	for i := from; i < to; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{
		PlansBuilt:     p.plans,
		DecisionsBuilt: len(p.entries),
		Elapsed:        time.Since(start),
	}
	for _, pr := range results {
		res.Points = append(res.Points, *pr)
		res.GateApplications += pr.GateApplications
		res.StateCopies += pr.StateCopies
		res.PrefixReuseHits += pr.PrefixReuseHits
	}
	return res, nil
}

// execute runs one point's resolved configuration at its seed: a histogram
// run, or for an observable sweep the ensemble estimate — mode "tqsim" on
// the tree executor (dense leaf states, the shared spine applies), mode
// "baseline" on the trajectory engine — so sweep estimates are byte-identical
// to the facade's standalone estimators at the derived seeds.
func (p *Prepared) execute(ctx context.Context, e *planEntry, seed uint64) (*core.Result, *observable.EstimateStats, error) {
	run, h := e.run, p.spec.Observable
	switch {
	case h == nil:
		res, err := run.Run(ctx, seed, p.spines)
		return res, nil, err
	case p.spec.mode() == "baseline":
		res, err := trajectory.RunExpectation(run.Plan.Circuit, run.Noise, h,
			run.Plan.TotalOutcomes(), trajectory.Options{Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return &core.Result{
			Outcomes:         run.Plan.TotalOutcomes(),
			GateApplications: res.GateApplications,
			Structure:        run.Plan.Structure(),
			BackendName:      "statevec",
			Elapsed:          res.Elapsed,
		}, &res.Stats, nil
	}
	ex, err := run.Executor(ctx, seed, p.spines)
	if err != nil {
		return nil, nil, err
	}
	er, err := ex.RunExpectation(run.Plan, h)
	if err != nil {
		return nil, nil, err
	}
	return er.Run, &er.Stats, nil
}

// runPoint executes one point.
func (p *Prepared) runPoint(ctx context.Context, i int) (*PointResult, error) {
	pt := p.points[i]
	e := p.entries[p.keys[i]]
	start := time.Now()
	r, estimate, err := p.execute(ctx, e, pt.Seed)
	if err != nil {
		return nil, fmt.Errorf("sweep point %d (%s): %w", pt.Index, pointLabel(p.circuits[pt.CircuitIndex].Name, pt), err)
	}
	c := p.circuits[pt.CircuitIndex]
	pr := &PointResult{
		Index:      pt.Index,
		Circuit:    c.Name,
		Width:      c.NumQubits,
		Noise:      pt.Noise.Label(),
		Shots:      pt.Shots,
		Partition:  pt.Partition.Label(),
		Rep:        pt.Rep,
		Seed:       pt.Seed,
		PlanShared: e.points > 1,
		Decision:   e.run.Decision,
		Estimate:   estimate,
		Elapsed:    time.Since(start),

		Backend:          r.BackendName,
		Structure:        r.Structure,
		Outcomes:         r.Outcomes,
		Counts:           r.Counts,
		GateApplications: r.GateApplications,
		StateCopies:      r.StateCopies,
		PrefixReuseHits:  r.PrefixReuseHits,
		PeakStateBytes:   r.PeakStateBytes,
	}
	if p.spec.Fidelity && len(pr.Counts) > 0 {
		pr.Fidelity = metrics.NormalizedFidelity(
			p.idealDist(pt.CircuitIndex),
			metrics.FromCounts(pr.Counts, 1<<uint(c.NumQubits)))
		pr.HasFidelity = true
	}
	return pr, nil
}

func pointLabel(circuit string, pt Point) string {
	return fmt.Sprintf("%s noise=%s shots=%d part=%s rep=%d",
		circuit, pt.Noise.Label(), pt.Shots, pt.Partition.Label(), pt.Rep)
}
