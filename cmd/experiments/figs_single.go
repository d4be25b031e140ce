package main

import (
	"fmt"

	"tqsim"
	"tqsim/internal/hpcmodel"
	"tqsim/internal/workloads"
)

// runTable2 prints the benchmark characteristics table.
func runTable2(cfg config) {
	rows := workloads.Characteristics(workloads.Suite(0))
	fmt.Print(workloads.FormatCharacteristics(rows))
}

// runTable3 measures baseline vs TQSim wall time on the largest circuits
// that fit the mode's budget (the paper uses QV_18, QV_20, QFT_20).
func runTable3(cfg config) {
	names := []string{"qv_n10", "qv_n12", "qft_n12"}
	shots := 400
	if cfg.full {
		names = []string{"qv_n18", "qv_n20", "qft_n18"}
		shots = 4000
	}
	opt := expOptions(cfg)
	fmt.Printf("%-10s %12s %12s %8s\n", "Benchmark", "Baseline(s)", "TQSim(s)", "Speedup")
	for _, name := range names {
		c := tqsim.BenchmarkByName(name)
		cmp, err := tqsim.Compare(c, tqsim.SycamoreNoise(), shots, opt)
		if err != nil {
			fmt.Printf("%-10s error: %v\n", name, err)
			continue
		}
		fmt.Printf("%-10s %12.2f %12.2f %7.2fx\n",
			name, cmp.BaselineTime.Seconds(), cmp.TQSimTime.Seconds(), cmp.Speedup)
	}
}

// runFig1 contrasts ideal with noisy simulation time for a QFT circuit.
func runFig1(cfg config) {
	width, shots := 10, 400
	if cfg.full {
		width, shots = 15, 3200
	}
	c := workloads.QFT(width, true)
	ideal := tqsim.RunIdeal(c, shots, cfg.seed)
	noisy, err := tqsim.RunBaselineBackend(c, tqsim.SycamoreNoise(), shots, tqsim.Options{Seed: cfg.seed})
	if err != nil {
		fmt.Printf("baseline error: %v\n", err)
		return
	}
	ratio := float64(noisy.Elapsed) / float64(ideal.Elapsed)
	fmt.Printf("QFT_%d, %d shots\n", width, shots)
	fmt.Printf("  ideal  %12v   (1 state-vector pass + sampling)\n", ideal.Elapsed)
	fmt.Printf("  noisy  %12v   (%d trajectories)\n", noisy.Elapsed, shots)
	fmt.Printf("  noisy/ideal ratio: %.0fx  (paper: 170-335x at 32k shots)\n", ratio)
}

// runFig4 prints the analytic memory curves and machine lines.
func runFig4(cfg config) {
	fmt.Printf("%-7s %16s %16s\n", "Qubits", "Statevector", "DensityMatrix")
	for n := 10; n <= 40; n += 5 {
		fmt.Printf("%-7d %16s %16s\n", n,
			fmtBytes(hpcmodel.StatevectorBytes(n)),
			fmtBytes(hpcmodel.DensityMatrixBytes(n)))
	}
	fmt.Printf("laptop (16 GB):       statevector up to %d qubits, density matrix up to %d\n",
		hpcmodel.MaxQubitsStatevector(hpcmodel.LaptopMemoryBytes),
		hpcmodel.MaxQubitsDensityMatrix(hpcmodel.LaptopMemoryBytes))
	fmt.Printf("El Capitan (~5.4 PB): statevector up to %d qubits, density matrix up to %d (paper: <25)\n",
		hpcmodel.MaxQubitsStatevector(hpcmodel.ElCapitanMemoryBytes),
		hpcmodel.MaxQubitsDensityMatrix(hpcmodel.ElCapitanMemoryBytes))
}

// runFig5 measures noisy BV scaling on-host and extrapolates with the
// documented model.
func runFig5(cfg config) {
	shots := 256
	widths := []int{10, 11, 12, 13, 14}
	if cfg.full {
		shots = 2048
		widths = []int{10, 12, 14, 16, 18}
	}
	fmt.Printf("%-7s %12s %14s %10s\n", "Qubits", "Time", "Time/shot", "Memory")
	var lastW int
	var lastSec float64
	for _, w := range widths {
		c := workloads.BV(w, workloads.BVSecret(w))
		res, err := tqsim.RunBaselineBackend(c, tqsim.SycamoreNoise(), shots, tqsim.Options{Seed: cfg.seed})
		if err != nil {
			fmt.Printf("%-7d error: %v\n", w, err)
			continue
		}
		sec := res.Elapsed.Seconds()
		fmt.Printf("%-7d %12.3fs %13.3fms %10s\n",
			w, sec, 1000*sec/float64(shots), fmtBytes(float64(res.PeakStateBytes)))
		lastW, lastSec = w, sec
	}
	model := hpcmodel.NoisyScalingModel{AnchorQubits: lastW, AnchorSeconds: lastSec, GateGrowth: 1.04}
	fmt.Println("model extrapolation (2x/qubit compute, linear gate growth):")
	for _, w := range []int{20, 24, 28} {
		fmt.Printf("%-7d %12.0fs  %10s   [modeled]\n",
			w, model.SecondsAt(w), fmtBytes(hpcmodel.StatevectorBytes(w)))
	}
	fmt.Println("shape check: time grows exponentially while memory stays far below system capacity")
}

// runFig8 prints the GPU parallel-shot model.
func runFig8(cfg config) {
	m := hpcmodel.DefaultA100()
	fmt.Printf("%-7s", "Qubits")
	ps := []int{1, 2, 4, 8, 16}
	for _, p := range ps {
		fmt.Printf(" %8s", fmt.Sprintf("p=%d", p))
	}
	fmt.Printf(" %12s\n", "Mem@p=16")
	for n := 20; n <= 25; n++ {
		fmt.Printf("%-7d", n)
		for _, p := range ps {
			fmt.Printf(" %8.2f", m.Speedup(p, n))
		}
		fmt.Printf(" %12s\n", fmtBytes(m.MemoryUsage(16, n)))
	}
	fmt.Println("shape check: 20-21 qubits gain up to ~3x; beyond 24 qubits parallel shots gain nothing")
}

// runFig9 measures BV baseline/TQSim memory and speedup across widths.
func runFig9(cfg config) {
	widths := []int{12, 14, 16}
	shots := 600
	if cfg.full {
		widths = []int{16, 18, 20, 22}
		shots = 4000
	}
	opt := expOptions(cfg)
	fmt.Printf("%-7s %14s %14s %9s %9s\n", "Qubits", "BaseMem", "TQSimMem", "Speedup", "WorkRatio")
	for _, w := range widths {
		c := workloads.BV(w, workloads.BVSecret(w))
		cmp, err := tqsim.Compare(c, tqsim.SycamoreNoise(), shots, opt)
		if err != nil {
			fmt.Printf("%-7d error: %v\n", w, err)
			continue
		}
		baseMem := hpcmodel.StatevectorBytes(w)
		fmt.Printf("%-7d %14s %14s %8.2fx %9.3f\n", w,
			fmtBytes(baseMem), fmtBytes(float64(cmp.TQSimPeakBytes)),
			cmp.Speedup, cmp.WorkRatio)
	}
	fmt.Println("shape check: TQSim stores one extra state per tree level, well below system memory")
}

// runFig10 profiles the host and prints the published machine table.
func runFig10(cfg config) {
	reps := 100
	lo, hi := 8, 14
	if cfg.full {
		reps, hi = 400, 20
	}
	avg, profiles := profileSweep(lo, hi, reps)
	fmt.Printf("%-34s %-14s %8s\n", "System", "Memory", "CopyCost")
	for _, e := range hpcmodel.Figure10Table() {
		fmt.Printf("%-34s %-14s %8.0f\n", e.Machine, e.Memory, e.Cost)
	}
	fmt.Printf("%-34s %-14s %8.1f   [measured]\n", "this host", "(profiled)", avg)
	fmt.Printf("per-width host ratios:")
	for _, p := range profiles {
		fmt.Printf(" %d:%.1f", p.Qubits, p.Ratio)
	}
	fmt.Println()
	fmt.Println("shape check: the ratio is width-stable, so DCP uses the average (Section 3.6)")
}

func fmtBytes(b float64) string {
	const unit = 1024.0
	suffixes := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB", "ZiB"}
	i := 0
	for b >= unit && i < len(suffixes)-1 {
		b /= unit
		i++
	}
	return fmt.Sprintf("%.1f %s", b, suffixes[i])
}
