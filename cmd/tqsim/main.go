// Command tqsim simulates a benchmark circuit (or an OpenQASM 2.0 file)
// under a noise model, either with the conventional baseline simulator,
// with TQSim's tree-based reuse, or with both for a side-by-side comparison.
//
// Examples:
//
//	tqsim -circuit qft_n12 -shots 2000                  # compare (default)
//	tqsim -circuit qv_n10 -mode tqsim -structure 64,4,4 # explicit tree
//	tqsim -circuit bv_n16 -mode tqsim -explain          # planner decision + run
//	tqsim -qasm prog.qasm -noise TRR -mode baseline
//	tqsim -sweep spec.json                              # grid sweep w/ reuse
//	tqsim -list                                         # suite inventory
//
// A sweep spec is the JSON form of tqsim.SweepSpec — circuit (suite name or
// inline QASM) × noise axis × shots axis × partitioner axis × repeats:
//
//	{"circuit": "qft_n12",
//	 "noise": [{"name": "DC"}, {"p1": 0.002, "p2": 0.01}],
//	 "shots": [1000, 3200], "repeats": 3, "seed": 1, "fidelity": true}
//
// Points run at derived seeds (point 0 keeps the base seed) and each
// point's histogram is byte-identical to running it standalone; the sweep
// engine shares plans and ideal-prefix snapshots across points, so the
// grid costs measurably less than the sum of its points.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"tqsim"
	"tqsim/internal/planner"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "suite circuit name (e.g. qft_n12); see -list")
		qasmPath    = flag.String("qasm", "", "OpenQASM 2.0 file to simulate instead of a suite circuit")
		noiseName   = flag.String("noise", "DC", "noise model: DC, DCR, TR, TRR, AD, ADR, PD, PDR, ALL, ideal")
		shots       = flag.Int("shots", 2000, "number of shots")
		seed        = flag.Uint64("seed", 1, "trajectory stream seed")
		mode        = flag.String("mode", "compare", "baseline | tqsim | compare | ideal")
		structure   = flag.String("structure", "", "explicit tree structure, e.g. 64,4,4 (tqsim mode)")
		copyCost    = flag.Float64("copycost", 0, "state copy cost in gate-equivalents (0 = profile)")
		backendName = flag.String("backend", "", "execution engine: auto, "+strings.Join(tqsim.Backends(), ", ")+" (default: auto for tqsim/compare, statevec for baseline)")
		explain     = flag.Bool("explain", false, "print the planner's engine decision (chosen + rejected candidates) before running")
		nodes       = flag.Int("nodes", 0, "cluster backend shard count (0 = default; rounds down to a power of two)")
		topK        = flag.Int("top", 8, "top outcomes to print")
		list        = flag.Bool("list", false, "list the benchmark suite and exit")
		sweepPath   = flag.String("sweep", "", "run a parameter/noise sweep from a JSON spec file (tqsim.SweepSpec)")
		sweepJSON   = flag.Bool("json", false, "with -sweep, emit NDJSON per-point lines instead of a table")
	)
	flag.Parse()

	if *list {
		printSuite()
		return
	}
	if *sweepPath != "" {
		runSweepFile(*sweepPath, *sweepJSON)
		return
	}
	c, err := loadCircuit(*circuitName, *qasmPath)
	if err != nil {
		fatal(err)
	}
	if err := planner.CheckBackend(*backendName); err != nil {
		fatal(err)
	}
	model, err := tqsim.LookupNoise(*noiseName)
	if err != nil {
		fatal(err)
	}
	opt := tqsim.Options{
		Seed:         *seed,
		CopyCost:     *copyCost,
		Backend:      *backendName,
		ClusterNodes: *nodes,
	}
	if opt.CopyCost == 0 {
		opt.CopyCost = tqsim.ProfileCopyCost(min(c.NumQubits, 14), 200)
		// Pure-Go gate kernels can be slower than memcpy, which would let
		// DCP cut single-gate subcircuits; clamp to the lowest published
		// Figure 10 machine value so plans match optimized backends.
		if opt.CopyCost < 5 {
			opt.CopyCost = 5
		}
	}
	fmt.Printf("circuit %s: %d qubits, %d gates, depth %d | noise %s | copy cost %.1f\n",
		c.Name, c.NumQubits, c.Len(), c.Depth(), model.Name(), opt.CopyCost)

	if *explain {
		// Explain the plan this invocation will actually run: the flat plan
		// for baseline mode, the explicit structure when one is given, the
		// DCP tree otherwise.
		var plan *tqsim.Plan
		switch {
		case *mode == "baseline" || *mode == "ideal":
			plan = tqsim.PlanBaseline(c, *shots)
		case *structure != "":
			arities, err := parseStructure(*structure)
			if err != nil {
				fatal(err)
			}
			plan = tqsim.PlanStructure(c, arities)
		default:
			plan = tqsim.PlanDCP(c, model, *shots, opt)
		}
		d, err := tqsim.DecidePlan(plan, model, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
		if name := opt.Backend; name != "" && name != tqsim.AutoBackend && name != d.Backend {
			fmt.Printf("note: -backend %s overrides the planner's choice\n", name)
		}
	}

	switch *mode {
	case "ideal":
		res := tqsim.RunIdeal(c, *shots, *seed)
		fmt.Printf("ideal: %d shots in %v\n", res.Shots, res.Elapsed)
		printCounts(res.Counts, c.NumQubits, *topK)
	case "baseline":
		res, err := tqsim.RunBaselineBackend(c, model, *shots, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("baseline: %d shots, %d kernel ops in %v\n",
			res.Shots, res.GateApplications, res.Elapsed)
		printCounts(res.Counts, c.NumQubits, *topK)
	case "tqsim":
		var res *tqsim.TreeResult
		if *structure != "" {
			arities, err := parseStructure(*structure)
			if err != nil {
				fatal(err)
			}
			res, err = tqsim.RunPlan(tqsim.PlanStructure(c, arities), model, opt)
			if err != nil {
				fatal(err)
			}
		} else {
			res, err = tqsim.RunTQSim(c, model, *shots, opt)
			if err != nil {
				fatal(err)
			}
		}
		fmt.Printf("tqsim %s: %d outcomes, %d kernel ops, %d copies, %d spine + %d sibling reuse hits and %d checkpoint starts of %d nodes, peak %.1f MiB in %v\n",
			res.Structure, res.Outcomes, res.GateApplications, res.StateCopies,
			res.PrefixReuseHits, res.SiblingReuseHits, res.CheckpointStarts, res.Nodes,
			float64(res.PeakStateBytes)/(1<<20), res.Elapsed)
		printCounts(res.Counts, c.NumQubits, *topK)
	case "compare":
		cmp, err := tqsim.Compare(c, model, *shots, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("structure   %s (%d outcomes)\n", cmp.Structure, cmp.Outcomes)
		fmt.Printf("baseline    %v  (fidelity %.4f)\n", cmp.BaselineTime, cmp.BaselineFidelity)
		fmt.Printf("tqsim       %v  (fidelity %.4f)\n", cmp.TQSimTime, cmp.TQSimFidelity)
		fmt.Printf("speedup     %.2fx (work ratio %.3f)\n", cmp.Speedup, cmp.WorkRatio)
		fmt.Printf("fid. diff   %.4f\n", cmp.FidelityDiff)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// runSweepFile executes a sweep spec file, printing points as they
// complete (completion order; each point's content is deterministic).
func runSweepFile(path string, asJSON bool) {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var spec tqsim.SweepSpec
	if err := json.Unmarshal(src, &spec); err != nil {
		fatal(fmt.Errorf("sweep spec %s: %w", path, err))
	}
	if !asJSON {
		fmt.Printf("%-14s %-14s %7s %-8s %3s %-12s %-10s %10s %8s %10s\n",
			"Circuit", "Noise", "Shots", "Plan", "Rep", "Structure", "Backend", "Ops", "Reused", "Fidelity")
	}
	enc := json.NewEncoder(os.Stdout)
	res, err := tqsim.RunSweepContext(context.Background(), &spec, func(pr *tqsim.SweepPointResult) error {
		if asJSON {
			line := map[string]any{
				"index": pr.Index, "circuit": pr.Circuit, "noise": pr.Noise,
				"shots": pr.Shots, "partition": pr.Partition, "rep": pr.Rep,
				"seed": pr.Seed, "backend": pr.Backend, "structure": pr.Structure,
				"outcomes": pr.Outcomes, "ops": pr.GateApplications,
				"prefix_hits": pr.PrefixReuseHits,
			}
			if pr.HasFidelity {
				line["fidelity"] = pr.Fidelity
			}
			return enc.Encode(line)
		}
		fid := "-"
		if pr.HasFidelity {
			fid = fmt.Sprintf("%10.4f", pr.Fidelity)
		}
		fmt.Printf("%-14s %-14s %7d %-8s %3d %-12s %-10s %10d %8d %10s\n",
			pr.Circuit, pr.Noise, pr.Shots, pr.Partition, pr.Rep,
			pr.Structure, pr.Backend, pr.GateApplications, pr.PrefixReuseHits, fid)
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if !asJSON {
		fmt.Printf("\n%d points | %d plans built, %d decisions | %d kernel ops | %d prefix-reuse hits | %v\n",
			len(res.Points), res.PlansBuilt, res.DecisionsBuilt,
			res.GateApplications, res.PrefixReuseHits, res.Elapsed.Round(1e6))
	}
}

func loadCircuit(name, path string) (*tqsim.Circuit, error) {
	switch {
	case name != "" && path != "":
		return nil, fmt.Errorf("use either -circuit or -qasm, not both")
	case path != "":
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return tqsim.ParseQASM(path, string(src))
	case name != "":
		c := tqsim.BenchmarkByName(name)
		if c == nil {
			return nil, fmt.Errorf("unknown suite circuit %q (see -list)", name)
		}
		return c, nil
	}
	return nil, fmt.Errorf("pass -circuit <name> or -qasm <file>; -list shows the suite")
}

func parseStructure(s string) ([]int, error) {
	parts := strings.Split(strings.Trim(s, "() "), ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad structure element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func printSuite() {
	fmt.Println("backends:", strings.Join(tqsim.Backends(), ", "))
	fmt.Println("benchmark suite (48 circuits, 8 classes):")
	for _, b := range tqsim.BenchmarkSuite(0) {
		c := b.Circuit
		fmt.Printf("  %-14s %2d qubits %5d gates\n", c.Name, c.NumQubits, c.Len())
	}
}

func printCounts(counts map[uint64]int, n, top int) {
	type kv struct {
		k uint64
		v int
	}
	var rows []kv
	total := 0
	for k, v := range counts {
		rows = append(rows, kv{k, v})
		total += v
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	if top > len(rows) {
		top = len(rows)
	}
	for _, r := range rows[:top] {
		fmt.Printf("  |%0*b>  %6d  (%.3f)\n", n, r.k, r.v, float64(r.v)/float64(total))
	}
	if len(rows) > top {
		fmt.Printf("  ... %d more outcomes\n", len(rows)-top)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tqsim:", err)
	os.Exit(1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
