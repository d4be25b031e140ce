package tqsim_test

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tqsim"
	"tqsim/internal/gate"
)

// sweepTestSpec returns a noise-grid spec over a non-Clifford circuit with
// a Clifford-ish prefix — depolarizing rates low enough that many tree
// segments draw no firing channel, so prefix reuse actually engages.
func sweepTestSpec() *tqsim.SweepSpec {
	return &tqsim.SweepSpec{
		Circuit: "qft_n8",
		Noise: []tqsim.SweepNoisePoint{
			{P1: 0.0005, P2: 0.002},
			{P1: 0.001, P2: 0.015},
			{Name: "DC"},
		},
		Shots:    []int{300, 500},
		Repeats:  2,
		Seed:     42,
		CopyCost: 5,
		Backend:  "statevec",
	}
}

// TestSweepIdentityVsStandalone is the determinism contract: every sweep
// point's histogram is byte-identical to an independent RunTQSim call at the
// derived seed — with reuse on and off, serial and point-parallel.
func TestSweepIdentityVsStandalone(t *testing.T) {
	base := sweepTestSpec()

	variants := []struct {
		name string
		mut  func(*tqsim.SweepSpec)
	}{
		{"reuse-serial", func(s *tqsim.SweepSpec) {}},
		{"noreuse-serial", func(s *tqsim.SweepSpec) { s.NoReuse = true }},
		{"reuse-parallel", func(s *tqsim.SweepSpec) { s.Concurrency = 4 }},
		{"noreuse-parallel", func(s *tqsim.SweepSpec) { s.NoReuse = true; s.Concurrency = 4 }},
	}

	// Reference: each point standalone through the public entry points.
	ref := map[int]map[uint64]int{}
	refSpec := *base
	prep, err := tqsim.PrepareSweep(&refSpec)
	if err != nil {
		t.Fatal(err)
	}
	c := tqsim.BenchmarkByName(base.Circuit)
	for i := 0; i < prep.NumPoints(); i++ {
		pt := prep.Point(i)
		m := pt.Noise.Model()
		opt := tqsim.Options{
			Seed:     tqsim.SweepSeed(base.Seed, i),
			CopyCost: base.CopyCost,
			Backend:  base.Backend,
		}
		res, err := tqsim.RunTQSim(c, m, pt.Shots, opt)
		if err != nil {
			t.Fatalf("standalone point %d: %v", i, err)
		}
		ref[i] = res.Counts
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			spec := *base
			v.mut(&spec)
			res, err := tqsim.RunSweep(&spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Points) != len(ref) {
				t.Fatalf("got %d points, want %d", len(res.Points), len(ref))
			}
			for _, pr := range res.Points {
				if !reflect.DeepEqual(pr.Counts, ref[pr.Index]) {
					t.Errorf("point %d (%s): histogram differs from standalone RunTQSim",
						pr.Index, pr.Noise)
				}
				if pr.Seed != tqsim.SweepSeed(spec.Seed, pr.Index) {
					t.Errorf("point %d: seed %d, want SweepSeed derivation", pr.Index, pr.Seed)
				}
			}
			if !spec.NoReuse && res.PrefixReuseHits == 0 {
				t.Error("reuse enabled but no prefix hits — the shortcut never engaged")
			}
			if spec.NoReuse && res.PrefixReuseHits != 0 {
				t.Error("reuse disabled but prefix hits reported")
			}
		})
	}
}

// TestSweepReuseReducesWork pins the acceptance criterion: with reuse on,
// the sweep performs measurably fewer gate applications than with reuse
// off, while the histograms stay identical (checked above).
func TestSweepReuseReducesWork(t *testing.T) {
	on := sweepTestSpec()
	off := sweepTestSpec()
	off.NoReuse = true
	// A stated worker count, so the planner's estimate and the run agree on
	// it (unset, an explicit engine runs serially on an estimate for
	// GOMAXPROCS workers).
	on.Parallelism, off.Parallelism = 2, 2

	resOn, err := tqsim.RunSweep(on)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := tqsim.RunSweep(off)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.PrefixReuseHits == 0 {
		t.Fatal("no prefix reuse hits on a light-noise sweep")
	}
	if resOn.GateApplications >= resOff.GateApplications {
		t.Fatalf("reuse on did %d gate applications, reuse off %d — expected a reduction",
			resOn.GateApplications, resOff.GateApplications)
	}
	// The exact relations. NoReuse is a full walk: every node of every
	// point's tree is copied into and run, none adopted. Sharing changes
	// nothing a point does except who builds its spine: the same point run
	// standalone (statevec, non-ideal Pauli noise, so it builds its own)
	// serves the same nodes from it and books one ideal pass over the
	// circuit and one copy per spine state more — a boundary and two interior
	// checkpoints per plan level, every segment here being long enough to
	// take its share.
	prep, err := tqsim.PrepareSweep(on)
	if err != nil {
		t.Fatal(err)
	}
	prepOff, err := tqsim.PrepareSweep(off)
	if err != nil {
		t.Fatal(err)
	}
	// Admission reserves what the points then report, reuse states or not.
	var peakOn, peakOff int64
	for i := range resOn.Points {
		peakOn = max(peakOn, resOn.Points[i].PeakStateBytes)
		peakOff = max(peakOff, resOff.Points[i].PeakStateBytes)
	}
	if prep.MaxEstPeakBytes() != peakOn || prepOff.MaxEstPeakBytes() != peakOff || peakOff >= peakOn {
		t.Errorf("admission estimates %d (reuse) and %d (NoReuse), largest reported peaks %d and %d",
			prep.MaxEstPeakBytes(), prepOff.MaxEstPeakBytes(), peakOn, peakOff)
	}
	c := tqsim.BenchmarkByName(on.Circuit)
	var idealPass int64
	for _, g := range c.Gates {
		if g.Kind != gate.KindI {
			idealPass++
		}
	}
	for i, pOn := range resOn.Points {
		pOff := resOff.Points[i]
		var nodes, width, levels int64 = 0, 1, 0
		for _, a := range strings.Split(strings.Trim(pOff.Structure, "()"), ",") {
			arity, err := strconv.ParseInt(a, 10, 64)
			if err != nil {
				t.Fatalf("point %d: structure %q: %v", i, pOff.Structure, err)
			}
			width *= arity
			nodes += width
			levels++
		}
		if pOff.PrefixReuseHits != 0 || pOff.StateCopies != nodes {
			t.Errorf("point %d with NoReuse: %d prefix hits, %d copies; want a full walk of %d nodes",
				i, pOff.PrefixReuseHits, pOff.StateCopies, nodes)
		}
		alone, err := tqsim.RunTQSim(c, prep.Point(i).Noise.Model(), pOn.Shots, tqsim.Options{
			Seed: pOn.Seed, CopyCost: on.CopyCost, Backend: on.Backend, Parallelism: on.Parallelism,
		})
		if err != nil {
			t.Fatalf("standalone point %d: %v", i, err)
		}
		if alone.PrefixReuseHits != pOn.PrefixReuseHits ||
			alone.GateApplications-pOn.GateApplications != idealPass ||
			alone.StateCopies-pOn.StateCopies != 3*levels {
			t.Errorf("point %d: standalone %d hits, %d ops, %d copies; shared spine %d hits, %d ops, %d copies; want equal hits, %d ops and %d copies apart",
				i, alone.PrefixReuseHits, alone.GateApplications, alone.StateCopies,
				pOn.PrefixReuseHits, pOn.GateApplications, pOn.StateCopies, idealPass, 3*levels)
		}
	}
	t.Logf("gate applications: reuse on %d, off %d (ratio %.3f), prefix hits %d",
		resOn.GateApplications, resOff.GateApplications,
		float64(resOn.GateApplications)/float64(resOff.GateApplications),
		resOn.PrefixReuseHits)
}

// TestSweepPlanSharing verifies the plan/decision dedupe: repeats of one
// cell share a plan, and noise-independent partitioners share one plan
// across the whole noise axis.
func TestSweepPlanSharing(t *testing.T) {
	spec := sweepTestSpec()
	res, err := tqsim.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 3 noise × 2 shots × 2 repeats = 12 points. DCP plans depend on
	// (noise, shots): at most 6 distinct plans, and decisions likewise.
	if len(res.Points) != 12 {
		t.Fatalf("got %d points, want 12", len(res.Points))
	}
	if res.PlansBuilt > 6 {
		t.Errorf("built %d plans for 6 cells — repeats are not sharing", res.PlansBuilt)
	}
	for _, pr := range res.Points {
		if pr.Rep == 1 && !pr.PlanShared {
			t.Errorf("point %d rep 1 did not share its cell's plan", pr.Index)
		}
		if pr.Decision == nil {
			t.Errorf("point %d carries no planner decision", pr.Index)
		}
	}

	// UCP ignores noise: one plan for the whole noise axis per shot count.
	ucp := sweepTestSpec()
	ucp.Partitions = []tqsim.SweepPartition{{Strategy: "ucp", Levels: 3}}
	ucp.Repeats = 1
	resU, err := tqsim.RunSweep(ucp)
	if err != nil {
		t.Fatal(err)
	}
	if resU.PlansBuilt != 2 { // one per shots value
		t.Errorf("UCP sweep built %d plans, want 2 (noise axis must share)", resU.PlansBuilt)
	}
}

// TestSweepBaselineModeIdentity checks mode "baseline" against RunBackend.
func TestSweepBaselineModeIdentity(t *testing.T) {
	spec := &tqsim.SweepSpec{
		Circuit: "bv_n8",
		Noise:   []tqsim.SweepNoisePoint{{Name: "DC"}, {P1: 0.002, P2: 0.01}},
		Shots:   []int{200},
		Mode:    "baseline",
		Seed:    7,
		Backend: "statevec",
	}
	res, err := tqsim.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := tqsim.BenchmarkByName("bv_n8")
	for _, pr := range res.Points {
		m := tqsim.SweepNoisePoint{Name: pr.Noise}.Model()
		if pr.Noise != "DC" {
			m = tqsim.DepolarizingNoise(0.002, 0.01)
		}
		ref, err := tqsim.RunBackend(c, m, pr.Shots, tqsim.Options{
			Seed: tqsim.SweepSeed(spec.Seed, pr.Index), Backend: "statevec",
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pr.Counts, ref.Counts) {
			t.Errorf("baseline point %d differs from RunBackend", pr.Index)
		}
	}
}

// TestSweepAutoPlannerRouting: with Backend auto, the sweep resolves each
// point through the planner exactly as RunTQSim would — a Clifford circuit
// under Pauli noise lands on the tableau tree and still matches standalone.
func TestSweepAutoPlannerRouting(t *testing.T) {
	spec := &tqsim.SweepSpec{
		Circuit: "bv_n10",
		Noise:   []tqsim.SweepNoisePoint{{Name: "DC"}},
		Shots:   []int{400},
		Seed:    3,
	}
	res, err := tqsim.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Points[0]
	if pr.Backend != "stabilizer" {
		t.Fatalf("auto routed %s, want the stabilizer tableau tree", pr.Backend)
	}
	c := tqsim.BenchmarkByName("bv_n10")
	ref, err := tqsim.RunTQSim(c, tqsim.SycamoreNoise(), 400, tqsim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Counts, ref.Counts) {
		t.Error("auto-routed sweep point differs from standalone RunTQSim")
	}
}

// TestSweepObservableIdentity checks Hamiltonian sweeps against the
// standalone estimators at the derived seeds.
func TestSweepObservableIdentity(t *testing.T) {
	c := tqsim.BenchmarkByName("qft_n8")
	h := tqsim.TransverseFieldIsing(8, 1.0, 0.6)
	spec := &tqsim.SweepSpec{
		Circuits:   []*tqsim.Circuit{c},
		Noise:      []tqsim.SweepNoisePoint{{P1: 0.001, P2: 0.01}},
		Shots:      []int{250},
		Repeats:    2,
		Seed:       11,
		CopyCost:   5,
		Observable: h,
	}
	res, err := tqsim.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Points {
		if pr.Estimate == nil {
			t.Fatalf("point %d: no estimate", pr.Index)
		}
		stats, _, err := tqsim.EstimateExpectationTQSim(c, tqsim.DepolarizingNoise(0.001, 0.01), h, pr.Shots,
			tqsim.Options{Seed: tqsim.SweepSeed(spec.Seed, pr.Index), CopyCost: 5})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mean != pr.Estimate.Mean || stats.StdErr != pr.Estimate.StdErr {
			t.Errorf("point %d: estimate %v differs from standalone %v", pr.Index, pr.Estimate, stats)
		}
	}
	if res.PrefixReuseHits == 0 {
		t.Error("observable sweep should also hit the prefix cache")
	}
}

// TestSweepFidelityAndCancel covers the fidelity observable and context
// cancellation.
func TestSweepFidelityAndCancel(t *testing.T) {
	spec := sweepTestSpec()
	spec.Fidelity = true
	res, err := tqsim.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := tqsim.BenchmarkByName(spec.Circuit)
	ideal := tqsim.IdealDistribution(c)
	for _, pr := range res.Points {
		// Equation 9 can go negative (worse than uniform); check the exact
		// value instead of a range.
		want := tqsim.NormalizedFidelity(ideal, tqsim.CountsDist(pr.Counts, pr.Width))
		if !pr.HasFidelity || pr.Fidelity != want {
			t.Errorf("point %d: fidelity %v (has=%v), want %v", pr.Index, pr.Fidelity, pr.HasFidelity, want)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tqsim.RunSweepContext(ctx, sweepTestSpec(), nil); err == nil {
		t.Error("cancelled sweep returned no error")
	}
}

// TestSweepPinnedBoundsIdentity: a "structure" partition entry with pinned
// bounds reproduces an externally derived plan exactly — the §5.5 pattern
// (derive the tree from one noise model, hold it fixed across the axis) —
// and matches a standalone RunPlan on that plan at the derived seeds.
func TestSweepPinnedBoundsIdentity(t *testing.T) {
	c := tqsim.BenchmarkByName("qft_n8")
	opt := tqsim.Options{Seed: 13, CopyCost: 5, Backend: "statevec"}
	plan := tqsim.PlanDCP(c, tqsim.SycamoreNoise(), 400, opt)
	spec := &tqsim.SweepSpec{
		Circuit: "qft_n8",
		Noise:   []tqsim.SweepNoisePoint{{Name: "DC"}, {P1: 0.0005, P2: 0.002}},
		Shots:   []int{400},
		Partitions: []tqsim.SweepPartition{
			{Strategy: "structure", Structure: plan.Arities, Bounds: plan.Bounds},
		},
		Seed:     13,
		CopyCost: 5,
		Backend:  "statevec",
	}
	res, err := tqsim.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlansBuilt != 1 {
		t.Errorf("pinned plan built %d times, want 1 (shared across the noise axis)", res.PlansBuilt)
	}
	for _, pr := range res.Points {
		if pr.Structure != plan.Structure() {
			t.Errorf("point %d ran structure %s, want pinned %s", pr.Index, pr.Structure, plan.Structure())
		}
		var m *tqsim.NoiseModel
		if pr.Noise == "DC" {
			m = tqsim.SycamoreNoise()
		} else {
			m = tqsim.DepolarizingNoise(0.0005, 0.002)
		}
		o := opt
		o.Seed = tqsim.SweepSeed(spec.Seed, pr.Index)
		ref, err := tqsim.RunPlan(plan, m, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pr.Counts, ref.Counts) {
			t.Errorf("point %d differs from standalone RunPlan on the pinned plan", pr.Index)
		}
	}
}
