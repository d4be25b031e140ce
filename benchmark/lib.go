package main

import (
	"fmt"
	"math"
	"time"

	"tqsim"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// libInput describes a library workload: one circuit under one noise model,
// simulated by the tree executor (tqsim.RunTQSim) and, as the reference, by
// the per-shot baseline (tqsim.RunBaselineBackend) on the engine and worker
// count the planner resolved for the tree — what tqsim.Compare does.
type libInput struct {
	circuit string
	noise   func() *tqsim.NoiseModel
	// treeShots and baseShots size one repeat; warmShots sizes the untimed
	// warm-up run that ends every set-up.
	treeShots, baseShots, warmShots int
	// checkArities is the small explicit tree on which RunPlan must give
	// the same histogram at Parallelism 0 and 2.
	checkArities []int
	// fidelity selects agreement = 1 - |F_baseline - F_tree|; without it
	// (too few shots to estimate a fidelity) agreement is the share of
	// histogram pairs of the parallelism check that are identical.
	fidelity bool
	setups   int
}

var treeWide = libInput{
	circuit:      "qpe_n16",
	noise:        func() *tqsim.NoiseModel { return tqsim.DepolarizingNoise(0.0002, 0.001) },
	treeShots:    150,
	baseShots:    24,
	warmShots:    8,
	checkArities: []int{8, 3},
	setups:       3,
}

var treeNarrow = libInput{
	circuit:      "qpe_n9_0",
	noise:        tqsim.SycamoreNoise,
	treeShots:    20000,
	baseShots:    10000,
	warmShots:    1000,
	checkArities: []int{300, 3, 2},
	fidelity:     true,
	setups:       5,
}

// fidelityHardLimit fails the run outright; the end-to-end bound on
// agreement is far tighter.
const fidelityHardLimit = 0.05

// libEnv is what set-up builds and the repeats use.
type libEnv struct {
	c     *tqsim.Circuit
	m     *tqsim.NoiseModel
	opt   tqsim.Options // Seed only: the library user's call
	ref   tqsim.Options // engine and worker count resolved for the tree
	ideal tqsim.Dist
}

func (in libInput) setup(cfg runCfg) (*libEnv, error) {
	c := tqsim.BenchmarkByName(in.circuit)
	if c == nil {
		return nil, fmt.Errorf("no suite circuit %q", in.circuit)
	}
	e := &libEnv{c: c, m: in.noise(), opt: tqsim.Options{Seed: cfg.seed}}
	dec, err := tqsim.DecidePlan(tqsim.PlanDCP(c, e.m, cfg.scaled(in.treeShots, 16), e.opt), e.m, e.opt)
	if err != nil {
		return nil, err
	}
	e.ref = tqsim.Options{Seed: cfg.seed, Backend: dec.Backend, Parallelism: dec.Parallelism}
	if in.fidelity {
		e.ideal = tqsim.IdealDistribution(c)
	}
	warm := cfg.scaled(in.warmShots, 4)
	if _, err := tqsim.RunTQSim(c, e.m, warm, e.opt); err != nil {
		return nil, err
	}
	if _, err := tqsim.RunBaselineBackend(c, e.m, warm, e.ref); err != nil {
		return nil, err
	}
	return e, nil
}

// treeRun is one tree simulation. Untraced it is the library user's single
// call; traced it makes the same three calls RunTQSim makes, with a span
// around each.
func (e *libEnv) treeRun(shots int, tr *tracer, parent *openSpan, trace int64) (*tqsim.TreeResult, error) {
	if tr == nil {
		return tqsim.RunTQSim(e.c, e.m, shots, e.opt)
	}
	sp := tr.begin("partition.plan", parent, trace)
	plan := tqsim.PlanDCP(e.c, e.m, shots, e.opt)
	sp.end()
	sp = tr.begin("planner.decide", parent, trace)
	dec, err := tqsim.DecidePlan(plan, e.m, e.opt)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.run", parent, trace)
	defer sp.end()
	return tqsim.RunPlan(plan, e.m, tqsim.Options{Seed: e.opt.Seed, Backend: dec.Backend, Parallelism: dec.Parallelism})
}

// fidelity is Eq. 9's normalised fidelity of a histogram thinned to n
// samples, so both sides carry the same sample-size bias.
func (e *libEnv) fidelity(counts map[uint64]int, n int) float64 {
	thin := tqsim.SubsampleCounts(counts, n, rng.SeedAt(e.opt.Seed, 0x5eed))
	return tqsim.NormalizedFidelity(e.ideal, tqsim.CountsDist(thin, e.c.NumQubits))
}

// exactCounts are the executor's counts that must repeat bit for bit.
type exactCounts struct {
	outcomes               int
	gateOps, copies, nodes int64
	peakBytes              int64
	digest                 string
}

func exactOf(r *tqsim.TreeResult) exactCounts {
	return exactCounts{r.Outcomes, r.GateApplications, r.StateCopies, r.Nodes, r.PeakStateBytes, histDigest(r.Counts)}
}

func runLib(in libInput, cfg runCfg) (*result, error) {
	res := newResult()
	var setupS []float64
	var env *libEnv
	for i := 0; i < in.setups; i++ {
		var err error
		setupS = append(setupS, timed(func() { env, err = in.setup(cfg) }).Seconds())
		if err != nil {
			return nil, err
		}
	}
	treeShots, baseShots := cfg.scaled(in.treeShots, 16), cfg.scaled(in.baseShots, 4)

	var treeRate, baseRate, treeMS, agree []float64
	var traceCost overhead
	var first exactCounts
	var firstBase string
	var baseOpsPerShot, gap float64
	mem := markMem()
	err := repeatUntil(cfg.duration(1), 2, func(rep int) error {
		// Traced runs trace every other repeat, so the same process yields
		// the traced and the untraced wall time of one repeat.
		tr := cfg.tr
		if rep%2 == 0 {
			tr = nil
		}
		root := tr.begin("workload.repeat", nil, int64(rep))
		defer root.end()

		var tree *tqsim.TreeResult
		var err error
		wall := timed(func() { tree, err = env.treeRun(treeShots, tr, root, int64(rep)) })
		if err != nil {
			return err
		}
		res.attempted += tree.Outcomes
		treeRate = append(treeRate, float64(tree.Outcomes)/wall.Seconds())
		treeMS = append(treeMS, wall.Seconds()*1e3)
		traceCost.add(tr != nil, wall.Seconds()*1e3)

		var base *tqsim.BaselineResult
		wall = timed(func() {
			sp := tr.begin("trajectory.run", root, int64(rep))
			base, err = tqsim.RunBaselineBackend(env.c, env.m, baseShots, env.ref)
			sp.end()
		})
		if err != nil {
			return err
		}
		res.attempted += baseShots
		baseRate = append(baseRate, float64(baseShots)/wall.Seconds())

		res.checkHistogram(fmt.Sprintf("repeat %d tree", rep), tree.Counts, tree.Outcomes, treeShots)
		res.checkHistogram(fmt.Sprintf("repeat %d baseline", rep), base.Counts, base.Shots, baseShots)
		got, gotBase := exactOf(tree), histDigest(base.Counts)
		if rep == 0 {
			first, firstBase = got, gotBase
			baseOpsPerShot = float64(base.GateApplications) / float64(baseShots)
		}
		res.check(got == first, tree.Outcomes, "repeat %d: tree counts %+v differ from the first repeat's %+v", rep, got, first)
		res.check(gotBase == firstBase, baseShots, "repeat %d: baseline histogram differs from the first repeat's", rep)

		if in.fidelity {
			sp := tr.begin("metrics.fidelity", root, int64(rep))
			n := min(baseShots, tree.Outcomes)
			gap = math.Abs(env.fidelity(base.Counts, n) - env.fidelity(tree.Counts, n))
			sp.end()
			agree = append(agree, 1-gap)
			res.check(gap <= fidelityHardLimit, tree.Outcomes, "repeat %d: fidelity gap %.4f beyond the hard limit %.2f", rep, gap, fidelityHardLimit)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ops := res.attempted

	par, err := env.parallelismCheck(in, cfg, res)
	if err != nil {
		return nil, err
	}
	if !in.fidelity {
		agree = []float64{par.identical}
	}

	res.e2e["setup_s"] = fastTime(setupS)
	res.e2e["ops_per_s"] = fastRate(treeRate)
	res.e2e["ref_ops_per_s"] = fastRate(baseRate)
	res.e2e["agreement"] = summarize(agree)
	res.e2e["latency_ms"] = fastTime(treeMS)

	if cfg.tr != nil {
		wallNS := median(treeMS) * 1e6
		res.layer = mem.since(ops)
		res.layer["core.gate_ops"] = float64(first.gateOps)
		res.layer["core.state_copies"] = float64(first.copies)
		res.layer["core.nodes"] = float64(first.nodes)
		res.layer["core.peak_state_bytes"] = float64(first.peakBytes)
		res.layer["core.work_ratio"] = float64(first.gateOps) / float64(first.outcomes) / baseOpsPerShot
		res.layer["core.ns_per_gate_op"] = wallNS / float64(first.gateOps)
		res.layer["core.copy_share_est"] = float64(first.copies) * copyNS(env.c.NumQubits) / wallNS
		res.layer["core.par2_speedup"] = par.speedup
		res.layer["paper.tree_speedup"] = median(treeRate) / median(baseRate)
		res.layer["paper.fidelity_gap"] = gap
		res.layer["trace.overhead_ratio"] = traceCost.ratio()
	}
	return res, nil
}

type parResult struct {
	// identical is the share of compared histogram pairs that are equal;
	// speedup is the serial wall over the two-worker wall.
	identical, speedup float64
}

// parallelismCheck runs the small explicit tree serially and on two workers:
// the sorted histograms must be byte-identical.
func (e *libEnv) parallelismCheck(in libInput, cfg runCfg, res *result) (parResult, error) {
	arities := append([]int(nil), in.checkArities...)
	arities[0] = cfg.scaled(arities[0], 2)
	plan := tqsim.PlanStructure(e.c, arities)
	var digests [2]string
	var wall [2]time.Duration
	for i, workers := range []int{0, 2} {
		t0 := time.Now()
		r, err := tqsim.RunPlan(plan, e.m, tqsim.Options{Seed: e.opt.Seed, Backend: e.ref.Backend, Parallelism: workers})
		wall[i] = time.Since(t0)
		if err != nil {
			return parResult{}, err
		}
		res.attempted += r.Outcomes
		res.checkHistogram(fmt.Sprintf("parallelism %d", workers), r.Counts, r.Outcomes, plan.TotalOutcomes())
		digests[i] = histDigest(r.Counts)
	}
	same := digests[0] == digests[1]
	res.check(same, plan.TotalOutcomes(), "RunPlan histograms differ between Parallelism 0 and 2")
	out := parResult{speedup: wall[0].Seconds() / wall[1].Seconds()}
	if same {
		out.identical = 1
	}
	return out, nil
}

// copyNS times one State.CopyFrom at the given width.
func copyNS(width int) float64 {
	src, dst := statevec.NewZero(width), statevec.NewZero(width)
	return timeOp(20*time.Millisecond, func() { dst.CopyFrom(src) })
}
