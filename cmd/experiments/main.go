// Command experiments regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records how the measured shapes compare to the
// published ones.
//
// Usage:
//
//	experiments [flags] <experiment>...
//	experiments all            # everything, quick configuration
//	experiments -full fig11    # paper-scale widths/shots (slow)
//
// Experiments: table2 table3 fig1 fig4 fig5 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 fig15 fig16 fig17 fig18 fig19
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"tqsim"
	"tqsim/internal/planner"
)

// config carries the global experiment knobs. Quick mode (the default, like
// the artifact's) caps widths/shots so the whole suite finishes in minutes;
// -full runs paper-scale parameters.
type config struct {
	full bool
	seed uint64
	// backend overrides the engine for the suite experiments (empty =
	// statevec); see the "backends" experiment for a side-by-side of all
	// registered engines.
	backend string
}

type experiment struct {
	name string
	desc string
	run  func(cfg config)
}

var experiments = []experiment{
	{"table2", "benchmark characteristics", runTable2},
	{"table3", "simulation time, medium-scale circuits", runTable3},
	{"fig1", "ideal vs noisy QFT simulation time", runFig1},
	{"fig4", "memory: statevector vs density matrix", runFig4},
	{"fig5", "noisy BV time and memory growth", runFig5},
	{"fig8", "GPU parallel-shot saturation", runFig8},
	{"fig9", "BV memory overhead and TQSim speedup", runFig9},
	{"fig10", "state copy cost across systems", runFig10},
	{"fig11", "TQSim speedup across the suite", runFig11},
	{"fig12", "speedup on the fusion (GPU-like) backend", runFig12},
	{"fig13", "multi-node strong and weak scaling", runFig13},
	{"fig14", "normalized fidelity difference across the suite", runFig14},
	{"fig15", "TQSim vs density-matrix fidelity", runFig15},
	{"fig16", "nine noise models on QPE", runFig16},
	{"fig17", "tree-structure accuracy/speedup trade-off", runFig17},
	{"fig18", "QAOA max-cut cost landscapes", runFig18},
	{"fig19", "redundancy elimination vs TQSim", runFig19},
	{"ablation", "DCP vs UCP vs XCP partitioners (DESIGN.md §5)", runAblation},
	{"sensitivity", "shot-count sensitivity (paper §4.3)", runSensitivity},
	{"oracle", "stabilizer-oracle cross-check on Clifford circuits", runOracle},
	{"backends", "registry side-by-side: every engine on shared workloads", runBackends},
	{"planner", "auto-dispatch decision table across the workload/noise/width grid", runPlanner},
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.full, "full", false, "run paper-scale parameters (slow)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "experiment seed")
	flag.StringVar(&cfg.backend, "backend", "",
		"execution engine for suite experiments: auto, "+strings.Join(tqsim.Backends(), ", "))
	flag.Parse()
	if err := planner.CheckBackend(cfg.backend); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, e := range experiments {
				want[e.name] = true
			}
			continue
		}
		want[strings.ToLower(a)] = true
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	unknown := make([]string, 0)
	for name := range want {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown) // deterministic pick regardless of map order
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n\n", unknown[0])
		usage()
		os.Exit(2)
	}
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		e.run(cfg)
		fmt.Println()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [-full] [-seed N] <experiment>...")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(os.Stderr, "  all      every experiment")
}

// mustNoise resolves a noise-model name from an experiment table; a name
// outside the vocabulary stops the run instead of simulating the ideal
// circuit under the wrong label.
func mustNoise(name string) *tqsim.NoiseModel {
	m, err := tqsim.LookupNoise(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	return m
}
