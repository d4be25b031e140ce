package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"tqsim/internal/circuit"
	"tqsim/internal/graphs"
	"tqsim/internal/metrics"
	"tqsim/internal/noise"
	"tqsim/internal/observable"
	"tqsim/internal/partition"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
	"tqsim/internal/trajectory"
	"tqsim/internal/workloads"
)

func TestIdealTreeMatchesIdealDistribution(t *testing.T) {
	// Without noise every trajectory is identical, so TQSim's reuse is
	// exact: the outcome distribution must match the ideal state's.
	c := workloads.QFT(6, true)
	plan := partition.FromStructure(c, []int{16, 8, 8}) // 1024 outcomes
	ex := &Executor{Seed: 5}
	res, err := ex.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes != 1024 {
		t.Fatalf("outcomes %d", res.Outcomes)
	}
	ideal := metrics.NewDist(trajectory.IdealState(c).Probabilities())
	emp := metrics.FromCounts(res.Counts, 1<<6)
	// 1024 samples over 64 outcomes: sampling alone gives TVD ≈ 0.09.
	if tvd := metrics.TVD(ideal, emp); tvd > 0.15 {
		t.Fatalf("ideal tree distribution TVD %v", tvd)
	}
}

func TestTreeAccountingMatchesPlan(t *testing.T) {
	c := workloads.QFT(6, true)
	plan := partition.FromStructure(c, []int{4, 2, 2})
	ex := &Executor{Seed: 1} // ideal: no noise ops inflate the count
	res, err := ex.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.GateApplications != plan.GateWork() {
		t.Fatalf("gate applications %d, plan says %d", res.GateApplications, plan.GateWork())
	}
	if res.StateCopies != plan.CopyWork() {
		t.Fatalf("state copies %d, plan says %d", res.StateCopies, plan.CopyWork())
	}
	if res.Nodes != plan.CopyWork() {
		t.Fatalf("nodes %d", res.Nodes)
	}
	wantPeak := int64(plan.Levels()+1) * int64(16*(1<<6))
	if res.PeakStateBytes != wantPeak {
		t.Fatalf("peak bytes %d, want %d", res.PeakStateBytes, wantPeak)
	}
}

func TestNoisyTreeMatchesBaselineFidelity(t *testing.T) {
	// The paper's core accuracy claim (Figure 14): TQSim's normalized
	// fidelity tracks the baseline's within ~0.016 (sampling noise at our
	// scaled-down shot counts widens that band slightly).
	c := workloads.QPE(7, workloads.QPEPhase, true, -1)
	m := noise.NewSycamore()
	shots := 4000
	ideal := metrics.NewDist(trajectory.IdealState(c).Probabilities())

	base := trajectory.Run(c, m, shots, trajectory.Options{Seed: 2, Parallelism: 8})
	baseF := metrics.NormalizedFidelity(ideal, metrics.FromCounts(base.Counts, 1<<8))

	plan := partition.Dynamic(c, m, shots, partition.DCPOptions{CopyCost: 20})
	if plan.Levels() < 2 {
		t.Fatalf("DCP failed to partition: %v", plan.Structure())
	}
	ex := &Executor{Noise: m, Seed: 3}
	res, err := ex.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	tqF := metrics.NormalizedFidelity(ideal, metrics.FromCounts(res.Counts, 1<<8))
	if d := math.Abs(tqF - baseF); d > 0.05 {
		t.Fatalf("fidelity diff %v (baseline %v, tqsim %v, structure %v)",
			d, baseF, tqF, res.Structure)
	}
}

func TestTreeReducesComputation(t *testing.T) {
	c := workloads.QFT(10, true)
	m := noise.NewSycamore()
	shots := 2000
	plan := partition.Dynamic(c, m, shots, partition.DCPOptions{CopyCost: 10})
	ex := &Executor{Noise: m, Seed: 7}
	res, err := ex.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	baseOps := int64(res.Outcomes) * int64(c.Len())
	nc := NormalizedComputation(res, baseOps)
	if nc >= 1 {
		t.Fatalf("tree did not reduce computation: %v", nc)
	}
	if nc < 0.1 {
		t.Fatalf("implausibly low computation %v", nc)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	c := workloads.BV(6, workloads.BVSecret(6))
	m := noise.NewSycamore()
	plan := partition.FromStructure(c, []int{10, 10})
	a, err := (&Executor{Noise: m, Seed: 9}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Executor{Noise: m, Seed: 9}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			t.Fatalf("seeded tree runs differ at %d", k)
		}
	}
}

func TestRunBaselineEquivalentToTrajectory(t *testing.T) {
	// The executor's (N) plan and the standalone trajectory runner must
	// agree in distribution (seeds differ in structure, so compare TVD).
	c := workloads.BV(6, workloads.BVSecret(6))
	m := noise.NewSycamore()
	ex := &Executor{Noise: m, Seed: 11}
	tree, err := ex.RunBaseline(c, 4000)
	if err != nil {
		t.Fatal(err)
	}
	traj := trajectory.Run(c, m, 4000, trajectory.Options{Seed: 12, Parallelism: 8})
	a := metrics.FromCounts(tree.Counts, 1<<6)
	b := metrics.FromCounts(traj.Counts, 1<<6)
	if tvd := metrics.TVD(a, b); tvd > 0.05 {
		t.Fatalf("executor baseline deviates from trajectory runner: TVD %v", tvd)
	}
}

func TestInvalidPlanRejected(t *testing.T) {
	c := circuit.New("c", 2).H(0)
	bad := &partition.Plan{Circuit: c, Arities: []int{0}}
	if _, err := (&Executor{}).Run(bad); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestProfileCopyCost(t *testing.T) {
	p := ProfileCopyCost(10, 50)
	if p.Ratio <= 0 {
		t.Fatalf("ratio %v", p.Ratio)
	}
	if p.GateNanos <= 0 || p.CopyNanos <= 0 {
		t.Fatalf("timings %v %v", p.GateNanos, p.CopyNanos)
	}
	avg, profiles := ProfileCopyCostSweep(8, 10, 20)
	if len(profiles) != 3 || avg <= 0 {
		t.Fatalf("sweep gave %d profiles, avg %v", len(profiles), avg)
	}
}

func TestSpeedupHelper(t *testing.T) {
	if s := Speedup(200, 100); s != 2 {
		t.Fatalf("speedup %v", s)
	}
	if s := Speedup(100, 0); s != 0 {
		t.Fatalf("zero-duration speedup %v", s)
	}
}

func TestResultString(t *testing.T) {
	c := workloads.BV(4, 1)
	plan := partition.FromStructure(c, []int{2, 2})
	res, err := (&Executor{Seed: 1}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestParallelTreeMatchesSerial(t *testing.T) {
	// The parallel walk pre-assigns the serial DFS sequence numbers, so the
	// histogram must be bit-identical at any worker count.
	c := workloads.QPE(6, workloads.QPEPhase, true, -1)
	m := noise.NewSycamore()
	plan := partition.FromStructure(c, []int{12, 3, 3})
	serial, err := (&Executor{Noise: m, Seed: 17}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 13} {
		par, err := (&Executor{Noise: m, Seed: 17, Parallelism: workers}).Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		if par.Outcomes != serial.Outcomes {
			t.Fatalf("workers=%d: outcomes %d vs %d", workers, par.Outcomes, serial.Outcomes)
		}
		for k, v := range serial.Counts {
			if par.Counts[k] != v {
				t.Fatalf("workers=%d: outcome %d count %d vs %d",
					workers, k, par.Counts[k], v)
			}
		}
		if par.GateApplications != serial.GateApplications ||
			par.StateCopies != serial.StateCopies || par.Nodes != serial.Nodes {
			t.Fatalf("workers=%d: accounting diverged", workers)
		}
	}
}

func TestTreeExpectationTracksBaseline(t *testing.T) {
	// TQSim's leaf-averaged energy must agree with the baseline's
	// trajectory-averaged energy within combined standard errors.
	c := workloads.QAOA(graphsRing(6), []workloads.QAOAParams{{Gamma: 0.6, Beta: 0.4}})
	m := noise.NewSycamore()
	h := observable.MaxCutHamiltonian(6, ringEdges(6))

	base, err := trajectory.RunExpectation(c, m, h, 3000, trajectory.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan := partition.FromStructure(c, []int{50, 8, 8})
	ex := &Executor{Noise: m, Seed: 3, Parallelism: 4}
	tree, err := ex.RunExpectation(plan, h)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Stats.N != 3200 {
		t.Fatalf("leaf count %d", tree.Stats.N)
	}
	diff := math.Abs(tree.Stats.Mean - base.Stats.Mean)
	band := 5*(tree.Stats.StdErr+base.Stats.StdErr) + 0.02
	if diff > band {
		t.Fatalf("tree energy %v vs baseline %v (band %v)",
			tree.Stats.Mean, base.Stats.Mean, band)
	}
	if tree.Run.GateApplications >= int64(tree.Stats.N)*int64(c.Len()) {
		t.Fatal("tree expectation did not reuse computation")
	}
}

// graphsRing/ringEdges avoid an import cycle on the graphs package helper.
func graphsRing(n int) *graphs.Graph { return graphs.Ring(n) }

func ringEdges(n int) [][2]int {
	e := make([][2]int, n)
	for i := 0; i < n; i++ {
		e[i] = [2]int{i, (i + 1) % n}
	}
	return e
}

func TestRunCancellation(t *testing.T) {
	c := workloads.QFT(8, true)
	m := noise.NewSycamore()
	plan := partition.FromStructure(c, []int{64, 8})

	// A pre-cancelled context must stop the run before (or during) the tree
	// walk and surface context.Canceled, never a partial result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &Executor{Noise: m, Seed: 3, Parallelism: 2, Context: ctx}
	res, err := ex.Run(plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned (%v, %v), want context.Canceled", res, err)
	}
	if res != nil {
		t.Fatal("cancelled run must not expose a partial result")
	}

	// Cancelling mid-run from another goroutine stops the walk early: with
	// the context cancelled after the first leaf, the executor must visit
	// strictly fewer nodes than the full tree has.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	fired := false
	ex2 := &Executor{Noise: m, Seed: 3, Context: ctx2}
	full := plan.CopyWork() // node count of the complete walk
	res2, err2 := ex2.runWithLeafHook(plan, func() {
		if !fired {
			fired = true
			cancel2()
		}
	})
	if !errors.Is(err2, context.Canceled) {
		t.Fatalf("mid-run cancel returned (%v, %v)", res2, err2)
	}
	_ = full
}

// runWithLeafHook runs the plan invoking hook at every leaf — test-only
// plumbing for cancellation-timing tests.
func (e *Executor) runWithLeafHook(plan *partition.Plan, hook func()) (*Result, error) {
	res := &Result{Counts: make(map[uint64]int)}
	err := e.runTree(plan, res, func(worker int) LeafFunc {
		return func(st *statevec.State, be Backend, r *rng.RNG) { hook() }
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TestRunSegmentAllocatesNothing: a PlainBackend segment runs the kernels
// its run lowered, so on a 9-qubit register (serial kernels) a segment whose
// noise draws fire nothing allocates nothing.
func TestRunSegmentAllocatesNothing(t *testing.T) {
	c := workloads.ByName("qpe_n9_0")
	if c == nil || c.NumQubits != 9 {
		t.Fatal("qpe_n9_0 is not a 9-qubit suite circuit")
	}
	gs := c.Gates[:24]
	ks := lowerGates(c.NumQubits, gs)
	e := &Executor{Noise: noise.ByName("DC")}
	var quiet uint64
	for seed := uint64(1); ; seed++ {
		if fired, _ := e.Noise.SegmentFires(gs, rng.New(seed)); !fired {
			quiet = seed
			break
		}
	}
	st := statevec.NewZero(c.NumQubits)
	r0, r := rng.New(quiet), new(rng.RNG)
	allocs := testing.AllocsPerRun(20, func() {
		*r = *r0
		if ops := e.runSegment(st, PlainBackend{}, gs, ks, r); ops != int64(len(gs)) {
			t.Fatalf("%d kernel ops, want %d (no channel fires)", ops, len(gs))
		}
	})
	if allocs != 0 {
		t.Fatalf("runSegment allocated %v times per call", allocs)
	}
}
