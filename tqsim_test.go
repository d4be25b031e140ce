package tqsim

import (
	"math"
	"strings"
	"testing"

	"tqsim/internal/workloads"
)

func TestQuickstartFlow(t *testing.T) {
	c := NewCircuit("bell", 2)
	c.H(0).CX(0, 1)
	res := RunIdeal(c, 1000, 1)
	if res.Counts[1] != 0 || res.Counts[2] != 0 {
		t.Fatalf("bell sampled impossible outcomes: %v", res.Counts)
	}
}

func TestCompareOnSuiteCircuit(t *testing.T) {
	c := workloads.QFT(8, true)
	cmp, err := Compare(c, SycamoreNoise(), 1500, Options{Seed: 3, CopyCost: 10})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Width != 8 || cmp.Gates != c.Len() {
		t.Fatalf("identification wrong: %+v", cmp)
	}
	if cmp.Outcomes < cmp.Shots {
		t.Fatalf("outcomes %d below shots %d", cmp.Outcomes, cmp.Shots)
	}
	if cmp.WorkRatio <= 0 || cmp.WorkRatio >= 1 {
		t.Fatalf("work ratio %v should show reuse savings", cmp.WorkRatio)
	}
	// Single-seed smoke bound: fidelity estimates from 1500 shots over the
	// QFT's spread spectrum carry ~0.05 sampling noise; the averaged
	// statistical check is TestNoisyTreeMatchesBaselineFidelity and the
	// fig14 harness.
	if cmp.FidelityDiff > 0.15 {
		t.Fatalf("fidelity diff %v too large", cmp.FidelityDiff)
	}
	if !strings.HasPrefix(cmp.Structure, "(") {
		t.Fatalf("structure %q", cmp.Structure)
	}
}

func TestPlanStructureAndRunPlan(t *testing.T) {
	c := workloads.QPE(6, workloads.QPEPhase, true, -1)
	plan := PlanStructure(c, []int{50, 2, 2})
	res, err := RunPlan(plan, SycamoreNoise(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes != 200 {
		t.Fatalf("outcomes %d", res.Outcomes)
	}
}

func TestFusionBackendOption(t *testing.T) {
	c := workloads.QSC(6, 4, 2)
	res, err := RunTQSim(c, SycamoreNoise(), 400, Options{Seed: 7, Backend: "fusion", CopyCost: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.BackendName != "fusion" {
		t.Fatalf("backend %q", res.BackendName)
	}
}

func TestExactNoisyDistribution(t *testing.T) {
	c := NewCircuit("x", 1).X(0)
	d := ExactNoisyDistribution(c, DepolarizingNoise(0.3, 0))
	if math.Abs(d.P[0]-0.2) > 1e-12 { // 2p/3
		t.Fatalf("exact distribution %v", d.P)
	}
}

func TestQASMRoundTripFacade(t *testing.T) {
	c := workloads.BV(5, 3)
	src, err := SerializeQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseQASM("bv", src)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() || back.NumQubits != c.NumQubits {
		t.Fatal("round trip changed the circuit")
	}
}

func TestNoiseByNameFacade(t *testing.T) {
	if NoiseByName("DC") == nil || NoiseByName("ALL") == nil {
		t.Fatal("model lookup failed")
	}
	if NoiseByName("ideal") != nil {
		t.Fatal("ideal should be nil")
	}
}

func TestProfileCopyCostFacade(t *testing.T) {
	if r := ProfileCopyCost(10, 20); r <= 0 {
		t.Fatalf("ratio %v", r)
	}
}

func TestNormalizedFidelitySelf(t *testing.T) {
	c := workloads.BV(5, 3)
	ideal := IdealDistribution(c)
	if f := NormalizedFidelity(ideal, ideal); math.Abs(f-1) > 1e-12 {
		t.Fatalf("self fidelity %v", f)
	}
}

func TestObservableFacade(t *testing.T) {
	g := RandomGraph(6, 0.5, 3)
	c := QAOACircuit(g, []QAOAParams{{Gamma: 0.6, Beta: 0.4}})
	h := MaxCutHamiltonian(g)
	ideal := ExactExpectation(c, h)
	if ideal <= 0 || ideal > float64(g.NumEdges()) {
		t.Fatalf("ideal cut expectation %v outside (0, |E|]", ideal)
	}
	opt := Options{Seed: 2, CopyCost: 5, Epsilon: 0.05}
	base, err := EstimateExpectationBaseline(c, SycamoreNoise(), h, 1500, opt)
	if err != nil {
		t.Fatal(err)
	}
	tq, run, err := EstimateExpectationTQSim(c, SycamoreNoise(), h, 1500, opt)
	if err != nil {
		t.Fatal(err)
	}
	if run.Outcomes < 1500 {
		t.Fatalf("tree produced %d estimates", run.Outcomes)
	}
	if diff := math.Abs(base.Mean - tq.Mean); diff > 5*(base.StdErr+tq.StdErr)+0.05 {
		t.Fatalf("estimates disagree: %v vs %v", base.Mean, tq.Mean)
	}
	if base.StdErr <= 0 || tq.StdErr <= 0 {
		t.Fatal("missing error bars")
	}
}

func TestTreeParallelismDeterministic(t *testing.T) {
	c := workloads.QPE(6, workloads.QPEPhase, true, -1)
	plan := PlanStructure(c, []int{20, 4, 4})
	a, err := RunPlan(plan, SycamoreNoise(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPlan(plan, SycamoreNoise(), Options{Seed: 4, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			t.Fatalf("parallel facade run changed outcome %d", k)
		}
	}
}

func TestSubsampleCounts(t *testing.T) {
	counts := map[uint64]int{0: 700, 1: 300}
	thin := SubsampleCounts(counts, 100, 9)
	total := 0
	for _, v := range thin {
		total += v
	}
	if total != 100 {
		t.Fatalf("subsample total %d", total)
	}
	// Proportions roughly preserved.
	if thin[0] < 50 || thin[0] > 90 {
		t.Fatalf("subsample skewed: %v", thin)
	}
	// At or below target: unchanged.
	same := SubsampleCounts(counts, 2000, 9)
	if same[0] != 700 || same[1] != 300 {
		t.Fatal("under-target histogram modified")
	}
}
