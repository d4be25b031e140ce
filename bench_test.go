package tqsim

// Benchmark harness: one testing.B target per paper table/figure plus the
// ablations DESIGN.md calls out. Each benchmark exercises the code path
// that regenerates the corresponding result; cmd/experiments prints the
// full rows/series. Reported custom metrics:
//
//   speedup        baseline wall time / TQSim wall time
//   work-ratio     TQSim kernel ops per outcome / baseline kernel ops per shot
//   fid-diff       |baseline - TQSim| normalized fidelity
//
// Benchmarks use scaled-down widths/shots so `go test -bench=.` completes
// in minutes; cmd/experiments -full runs paper-scale parameters.

import (
	"fmt"
	"testing"

	"tqsim/internal/cluster"
	"tqsim/internal/core"
	"tqsim/internal/densmat"
	"tqsim/internal/fusion"
	"tqsim/internal/gate"
	"tqsim/internal/hpcmodel"
	"tqsim/internal/metrics"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/qmath"
	"tqsim/internal/redunelim"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
	"tqsim/internal/trajectory"
	"tqsim/internal/workloads"
)

// benchOptions are the shared scaled-down settings.
func benchOptions(seed uint64) Options {
	return Options{Seed: seed, CopyCost: 5, Epsilon: 0.05}
}

// reportComparison attaches the custom metrics to b.
func reportComparison(b *testing.B, cmp *Comparison) {
	b.ReportMetric(cmp.Speedup, "speedup")
	b.ReportMetric(cmp.WorkRatio, "work-ratio")
	b.ReportMetric(cmp.FidelityDiff, "fid-diff")
}

// BenchmarkFig01_IdealVsNoisy measures the ideal/noisy gap of Figure 1.
func BenchmarkFig01_IdealVsNoisy(b *testing.B) {
	c := workloads.QFT(10, true)
	m := SycamoreNoise()
	b.Run("ideal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunIdeal(c, 200, uint64(i))
		}
	})
	b.Run("noisy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunBaselineBackend(c, m, 200, Options{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig05_NoisyBVScaling measures the per-width noisy BV cost of
// Figure 5.
func BenchmarkFig05_NoisyBVScaling(b *testing.B) {
	m := SycamoreNoise()
	for _, w := range []int{10, 12, 14} {
		c := workloads.BV(w, workloads.BVSecret(w))
		b.Run(fmt.Sprintf("q%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunBaselineBackend(c, m, 128, Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig09_BVMemorySpeedup measures the BV baseline/TQSim pair of
// Figure 9.
func BenchmarkFig09_BVMemorySpeedup(b *testing.B) {
	c := workloads.BV(14, workloads.BVSecret(14))
	m := SycamoreNoise()
	b.ResetTimer()
	var last *Comparison
	for i := 0; i < b.N; i++ {
		cmp, err := Compare(c, m, 600, benchOptions(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		last = cmp
	}
	reportComparison(b, last)
	b.ReportMetric(float64(last.TQSimPeakBytes), "peak-bytes")
}

// BenchmarkFig10_CopyCost profiles the state-copy cost of Figure 10.
func BenchmarkFig10_CopyCost(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = core.ProfileCopyCost(12, 50).Ratio
	}
	b.ReportMetric(ratio, "copy-cost-gates")
}

// BenchmarkFig11 measures the baseline-vs-TQSim speedup per benchmark
// class (Figure 11), one representative circuit per class.
func BenchmarkFig11(b *testing.B) {
	m := SycamoreNoise()
	cases := []string{
		"adder_n10_0", "bv_n10", "mul_n13", "qaoa_n8",
		"qft_n8", "qpe_n9_0", "qsc_n10", "qv_n10",
	}
	for _, name := range cases {
		c := BenchmarkByName(name)
		if c == nil {
			b.Fatalf("missing suite circuit %s", name)
		}
		b.Run(name, func(b *testing.B) {
			var last *Comparison
			for i := 0; i < b.N; i++ {
				cmp, err := Compare(c, m, 600, benchOptions(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				last = cmp
			}
			reportComparison(b, last)
		})
	}
}

// BenchmarkTable3_MediumCircuits measures the medium-scale pair of Table 3.
func BenchmarkTable3_MediumCircuits(b *testing.B) {
	m := SycamoreNoise()
	for _, name := range []string{"qv_n10", "qft_n12"} {
		c := BenchmarkByName(name)
		b.Run(name, func(b *testing.B) {
			var last *Comparison
			for i := 0; i < b.N; i++ {
				cmp, err := Compare(c, m, 200, benchOptions(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				last = cmp
			}
			reportComparison(b, last)
		})
	}
}

// BenchmarkFig12_FusionBackend measures TQSim on the fusion ("GPU-like")
// backend (Figure 12).
func BenchmarkFig12_FusionBackend(b *testing.B) {
	c := workloads.QSC(10, workloads.QSCDepthFor(10), 5)
	m := SycamoreNoise()
	var last *Comparison
	for i := 0; i < b.N; i++ {
		opt := benchOptions(uint64(i))
		opt.Backend = "fusion"
		cmp, err := Compare(c, m, 600, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = cmp
	}
	reportComparison(b, last)
}

// BenchmarkFig13_Cluster runs the qft_n12 gate stream on the cluster
// backend over 16 shards and prices the scaling model (Figure 13).
func BenchmarkFig13_Cluster(b *testing.B) {
	m := noise.NewSycamore()
	b.Run("diststate-16nodes", func(b *testing.B) {
		c := workloads.QFT(12, true)
		for i := 0; i < b.N; i++ {
			be, st := cluster.NewBackend(16), statevec.NewZero(12)
			for _, g := range c.Gates {
				be.Apply(st, g)
			}
		}
	})
	b.Run("costmodel-sweep", func(b *testing.B) {
		c := workloads.QFT(26, true)
		var speedup float64
		for i := 0; i < b.N; i++ {
			pts := cluster.StrongScaling(c, m, 128, []int{1, 2, 4, 8, 16, 32})
			speedup = pts[len(pts)-1].Speedup
		}
		b.ReportMetric(speedup, "speedup-32nodes")
	})
}

// BenchmarkFig14_Fidelity measures the fidelity-difference pipeline
// (Figure 14).
func BenchmarkFig14_Fidelity(b *testing.B) {
	c := workloads.QPE(7, workloads.QPEPhase, true, -1)
	m := SycamoreNoise()
	var last *Comparison
	for i := 0; i < b.N; i++ {
		cmp, err := Compare(c, m, 1000, benchOptions(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		last = cmp
	}
	b.ReportMetric(last.FidelityDiff, "fid-diff")
}

// BenchmarkFig15_DensityMatrixReference measures the exact reference
// (Figure 15).
func BenchmarkFig15_DensityMatrixReference(b *testing.B) {
	c := workloads.BV(8, workloads.BVSecret(8))
	m := noise.NewSycamore()
	for i := 0; i < b.N; i++ {
		densmat.Simulate(c, m)
	}
}

// BenchmarkFig16_NoiseModels measures trajectory execution under each
// channel family (Figure 16).
func BenchmarkFig16_NoiseModels(b *testing.B) {
	c := workloads.QPE(6, workloads.QPEPhase, true, -1)
	for _, name := range []string{"DC", "TR", "AD", "PD", "ALL"} {
		m := NoiseByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunBaselineBackend(c, m, 100, Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig17_Structures measures the six tree structures of the
// trade-off study (Figure 17).
func BenchmarkFig17_Structures(b *testing.B) {
	c := workloads.QPE(6, workloads.QPEPhase, true, -1)
	m := SycamoreNoise()
	for _, s := range [][]int{
		{250, 2, 2}, {20, 10, 5}, {10, 10, 10}, {5, 10, 20}, {2, 2, 250}, {250, 1, 1},
	} {
		plan := PlanStructure(c, s)
		b.Run(plan.Structure(), func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				res, err := RunPlan(plan, m, Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				ops = res.GateApplications
			}
			b.ReportMetric(float64(ops), "kernel-ops")
		})
	}
}

// BenchmarkFig18_QAOALandscape measures one landscape grid point pair
// (Figure 18).
func BenchmarkFig18_QAOALandscape(b *testing.B) {
	g := RandomGraph(8, 0.5, 3)
	c := QAOACircuit(g, []QAOAParams{{Gamma: 0.7, Beta: 0.3}})
	m := SycamoreNoise()
	var last *Comparison
	for i := 0; i < b.N; i++ {
		cmp, err := Compare(c, m, 300, benchOptions(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		last = cmp
	}
	reportComparison(b, last)
}

// BenchmarkFig19_RedunElim measures the redundancy-elimination analysis
// against TQSim's planning on the same circuit (Figure 19).
func BenchmarkFig19_RedunElim(b *testing.B) {
	c := workloads.QFT(10, true)
	m := noise.NewSycamore()
	b.Run("redun-elim", func(b *testing.B) {
		var nc float64
		for i := 0; i < b.N; i++ {
			nc = redunelim.Analyze(c, m, 500, uint64(i)).NormalizedComputation
		}
		b.ReportMetric(nc, "norm-comp")
	})
	b.Run("tqsim-plan", func(b *testing.B) {
		var nc float64
		for i := 0; i < b.N; i++ {
			plan := partition.Dynamic(c, m, 500, partition.DCPOptions{CopyCost: 5, Epsilon: 0.05})
			tree := float64(plan.GateWork()) + 5*float64(plan.CopyWork())
			nc = tree / (float64(plan.TotalOutcomes()) * float64(c.Len()))
		}
		b.ReportMetric(nc, "norm-comp")
	})
}

// BenchmarkFig08_GPUShotModel evaluates the Figure 8 model (cheap; included
// for completeness so every figure has a bench target).
func BenchmarkFig08_GPUShotModel(b *testing.B) {
	m := hpcmodel.DefaultA100()
	var s float64
	for i := 0; i < b.N; i++ {
		for n := 20; n <= 25; n++ {
			for _, p := range []int{1, 2, 4, 8, 16} {
				s += m.Speedup(p, n)
			}
		}
	}
	_ = s
}

// BenchmarkFig04_MemoryModel evaluates the Figure 4 curves.
func BenchmarkFig04_MemoryModel(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		for n := 10; n <= 40; n++ {
			acc += hpcmodel.StatevectorBytes(n) + hpcmodel.DensityMatrixBytes(n)
		}
	}
	_ = acc
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblation_MinLen ablates the copy-cost-derived minimum subcircuit
// length: planning with minLen 1 admits single-gate subcircuits whose copy
// overhead erodes the win.
func BenchmarkAblation_MinLen(b *testing.B) {
	c := workloads.QFT(10, true)
	m := SycamoreNoise()
	for _, cc := range []float64{0.5, 5, 20} {
		b.Run(fmt.Sprintf("copycost-%.1f", cc), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				plan := partition.Dynamic(c, m, 1000,
					partition.DCPOptions{CopyCost: cc, Epsilon: 0.05})
				speedup = plan.TheoreticalSpeedup(cc)
			}
			b.ReportMetric(speedup, "theoretical-speedup")
		})
	}
}

// BenchmarkAblation_Parallelism ablates the kernel parallelization
// threshold on a wide register.
func BenchmarkAblation_Parallelism(b *testing.B) {
	c := workloads.QFT(16, true)
	old := statevec.ParallelThreshold
	defer func() { statevec.ParallelThreshold = old }()
	for _, th := range []int{1 << 30, 1 << 14} {
		name := "parallel"
		if th == 1<<30 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			statevec.ParallelThreshold = th
			for i := 0; i < b.N; i++ {
				st := statevec.NewZero(16)
				st.ApplyAll(c.Gates)
			}
		})
	}
}

// BenchmarkAblation_FastPaths compares the specialized gate kernels with
// generic matrix application.
func BenchmarkAblation_FastPaths(b *testing.B) {
	st := statevec.NewZero(14)
	cx := NewCircuit("fast", 14).CX(0, 13).Gates[0]
	generic := cx.Matrix()
	b.Run("fast-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.Apply(cx)
		}
	})
	b.Run("generic-4x4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.Apply2Q(0, 13, generic)
		}
	})
}

// BenchmarkAblation_Sampling compares per-leaf linear-scan sampling with
// the cumulative-table path.
func BenchmarkAblation_Sampling(b *testing.B) {
	c := workloads.QFT(12, true)
	st := trajectory.IdealState(c)
	b.Run("scan-per-sample", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			st.Sample(r)
		}
	})
	b.Run("cumulative-table", func(b *testing.B) {
		r := rng.New(2)
		for i := 0; i < b.N; i++ {
			st.SampleMany(256, r)
		}
	})
}

// --- Kernel microbenchmarks (BenchmarkKernels_*) ---
//
// The per-gate-class × qubit-position kernel grid lives in benchmark/probes.go
// (statevec.*_amps_per_s, reported by `bash benchmark/run.sh -seed 1 -trace
// 1`). What stays here are the two classes those probes do not cover: the
// dense three-qubit kernel and the Prob1 reduction. Widths cover the
// sub-threshold serial regime (q10), the parallel regime (q20), and a
// cache-pressure point (q22, 64 MiB state).

// kernelWidths are the register widths the remaining kernel classes are
// measured at.
var kernelWidths = []int{10, 20, 22}

func BenchmarkKernels_3Q(b *testing.B) {
	// A fixed random 8x8 unitary through the dense three-qubit
	// gather/scatter kernel — the widest fused-block application path.
	u8 := qmath.RandomUnitary(8, rng.New(77))
	for _, w := range kernelWidths {
		b.Run(fmt.Sprintf("q%d/hi", w), func(b *testing.B) {
			st := statevec.NewZero(w)
			b.SetBytes(int64(st.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Apply3Q(w/2, w/2-1, w/2-2, u8)
			}
			b.ReportMetric(float64(st.Dim())*float64(b.N)/b.Elapsed().Seconds(), "amps/s")
		})
	}
}

// BenchmarkFusionQFT_EndToEnd measures an ideal QFT through the fusion
// backend against direct kernel dispatch — the end-to-end number the
// fused controlled-phase runs are accountable to. Two stream shapes:
// the CP-native circuit (decompose=false) is the fusion target, where
// each QFT row's CP chain collapses into one phase-run sweep; the
// decomposed circuit (decompose=true) has no multi-qubit structure left
// by construction, so the fused leg there bounds pure bookkeeping
// overhead — it must track the plain leg, not beat it.
func BenchmarkFusionQFT_EndToEnd(b *testing.B) {
	for _, w := range []int{16, 20} {
		for _, shape := range []struct {
			name      string
			decompose bool
		}{{"cp", false}, {"decomposed", true}} {
			c := workloads.QFT(w, shape.decompose)
			b.Run(fmt.Sprintf("plain/%s/q%d", shape.name, w), func(b *testing.B) {
				st := statevec.NewZero(w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.ApplyAll(c.Gates)
				}
			})
			b.Run(fmt.Sprintf("fused/%s/q%d", shape.name, w), func(b *testing.B) {
				st := statevec.NewZero(w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					be := fusion.New()
					for _, g := range c.Gates {
						be.Apply(st, g)
					}
					be.Flush(st)
				}
			})
		}
	}
}

// benchSink keeps pure-function benchmark results alive; without it the
// compiler inlines Prob1 and deletes the whole loop body as dead code.
var benchSink float64

func BenchmarkKernels_Prob1(b *testing.B) {
	for _, w := range kernelWidths {
		st := statevec.NewZero(w)
		st.Apply(gate.New(gate.KindH, w-1))
		b.Run(fmt.Sprintf("q%d", w), func(b *testing.B) {
			b.SetBytes(int64(st.Bytes()))
			for i := 0; i < b.N; i++ {
				benchSink += st.Prob1(w - 1)
			}
			b.ReportMetric(float64(st.Dim())*float64(b.N)/b.Elapsed().Seconds(), "amps/s")
		})
	}
}

// BenchmarkDensityMatrixStep measures one noisy density-matrix gate step —
// the quadratic-cost reference path.
func BenchmarkDensityMatrixStep(b *testing.B) {
	d := densmat.NewZero(8)
	g := NewCircuit("d", 8).H(3).Gates[0]
	ch := noise.Depolarizing1Q{P: 0.01}
	for i := 0; i < b.N; i++ {
		d.ApplyUnitary(g)
		d.ApplyChannel(ch, []int{3})
	}
}

// BenchmarkFidelityMetrics measures the Equation 8/9 pipeline.
func BenchmarkFidelityMetrics(b *testing.B) {
	c := workloads.QPE(7, workloads.QPEPhase, true, -1)
	ideal := IdealDistribution(c)
	res := RunIdeal(c, 4000, 1)
	out := CountsDist(res.Counts, c.NumQubits)
	b.ResetTimer()
	var f float64
	for i := 0; i < b.N; i++ {
		f = metrics.NormalizedFidelity(ideal, out)
	}
	_ = f
}
