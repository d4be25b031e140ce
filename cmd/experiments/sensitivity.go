package main

import (
	"fmt"
	"math"

	"tqsim"
	"tqsim/internal/core"
	"tqsim/internal/metrics"
	"tqsim/internal/stabilizer"
	"tqsim/internal/workloads"
)

// runSensitivity reproduces the paper's §4.3 shot-count sensitivity study:
// reduced budgets (1,000 and 3,200 shots) magnify the statistical noise;
// TQSim's fidelity must keep tracking the baseline's while the speedup
// band persists. The (shots × repeats) grid per circuit runs on the sweep
// engine — one tqsim sweep and one baseline sweep over identical derived
// seeds — instead of the previous hand-rolled loop, so the replicas share
// one plan/decision per cell and the Pauli points share ideal-prefix
// snapshots.
func runSensitivity(cfg config) {
	shotsList := []int{1000, 3200}
	if cfg.full {
		shotsList = append(shotsList, 10000)
	}
	names := []string{"bv_n10", "qpe_n9_0", "qft_n10", "qsc_n10"}
	opt := expOptions(cfg)
	const reps = 3
	fmt.Printf("%-12s %7s %-16s %8s %9s %9s\n",
		"Circuit", "Shots", "Structure", "Speedup", "WorkRatio", "FidDiff")
	for _, name := range names {
		c := tqsim.BenchmarkByName(name)
		if c == nil {
			continue
		}
		spec := tqsim.SweepSpec{
			Circuits: []*tqsim.Circuit{c},
			Noise:    []tqsim.SweepNoisePoint{{Name: "DC"}},
			Shots:    shotsList,
			Repeats:  reps,
			Seed:     cfg.seed,
			CopyCost: opt.CopyCost,
			Epsilon:  opt.Epsilon,
			Backend:  opt.Backend,
			Fidelity: true, // baseline points sample exactly `shots`; no bias
		}
		ideal := tqsim.IdealDistribution(c)
		tq, err := tqsim.RunSweep(&spec)
		if err != nil {
			fmt.Printf("%-12s error: %v\n", name, err)
			continue
		}
		baseSpec := spec
		baseSpec.Mode = "baseline"
		base, err := tqsim.RunSweep(&baseSpec)
		if err != nil {
			fmt.Printf("%-12s error: %v\n", name, err)
			continue
		}
		// Aggregate the replicas of each shots cell (points are expanded
		// shots-major, repeats innermost).
		for si, shots := range shotsList {
			var spd, wr, fd []float64
			var structure string
			for rep := 0; rep < reps; rep++ {
				tp := tq.Points[si*reps+rep]
				bp := base.Points[si*reps+rep]
				structure = tp.Structure
				spd = append(spd, core.Speedup(bp.Elapsed, tp.Elapsed))
				basePerShot := float64(bp.GateApplications) / float64(bp.Outcomes)
				tqPerOutcome := float64(tp.GateApplications) / float64(tp.Outcomes)
				if basePerShot > 0 {
					wr = append(wr, tqPerOutcome/basePerShot)
				}
				// Equal-size samples before comparing fidelities: the tree
				// over-provisions outcomes past the requested shots, and
				// fidelity estimates carry a sample-size bias (the same
				// thinning tqsim.Compare applies).
				thinned := tqsim.SubsampleCounts(tp.Counts, shots, tqsim.SweepSeed(tp.Seed, 0x5eed))
				tqF := tqsim.NormalizedFidelity(ideal, tqsim.CountsDist(thinned, c.NumQubits))
				fd = append(fd, math.Abs(bp.Fidelity-tqF))
			}
			fmt.Printf("%-12s %7d %-16s %7.2fx %9.3f %9.4f\n",
				name, shots, structure,
				metrics.Mean(spd), metrics.Mean(wr), metrics.Mean(fd))
		}
	}
	fmt.Println("shape check: fewer shots shrink A0's budget and the tree depth, but the")
	fmt.Println("fidelity difference stays in the statistical-noise band (paper §4.3)")
}

// runOracle cross-checks the trajectory engine against the independent CHP
// stabilizer simulator on noisy Clifford circuits — the exact-oracle check
// the paper's §4.2 "why BV" discussion enables.
func runOracle(cfg config) {
	shots := 20000
	if cfg.full {
		shots = 100000
	}
	p1, p2 := 0.005, 0.02
	fmt.Printf("depolarizing rates: 1q %.3f, 2q %.3f; %d shots per engine\n", p1, p2, shots)
	fmt.Printf("%-10s %6s %8s\n", "Circuit", "Gates", "TVD")
	m := tqsim.DepolarizingNoise(p1, p2)
	for _, w := range []int{6, 8, 10, 12} {
		c := workloads.BV(w, workloads.BVSecret(w))
		stab, err := stabilizer.RunTree(tqsim.PlanBaseline(c, shots), m, cfg.seed, 8)
		if err != nil {
			fmt.Printf("%-10s error: %v\n", c.Name, err)
			continue
		}
		sv, err := tqsim.RunBaselineBackend(c, m, shots,
			tqsim.Options{Seed: tqsim.SweepSeed(cfg.seed, 1), Parallelism: 8})
		if err != nil {
			fmt.Printf("%-10s error: %v\n", c.Name, err)
			continue
		}
		a := metrics.FromCounts(stab.Counts, 1<<uint(w))
		b := metrics.FromCounts(sv.Counts, 1<<uint(w))
		fmt.Printf("%-10s %6d %8.4f\n", c.Name, c.Len(), metrics.TVD(a, b))
	}
	fmt.Println("shape check: two independent simulation formalisms (tableau vs state")
	fmt.Println("vector) agree to sampling noise on noisy Clifford workloads")
}
