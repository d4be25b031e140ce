// Command benchmark is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the library or the daemon would see, per-layer
// probes, and a traced run. See README.md in this directory.
//
//	go run ./benchmark -seed 1             every workload, end-to-end metrics
//	go run ./benchmark -seed 1 -trace 1    every workload, per-layer metrics and spans
//	go run ./benchmark -workload tree_wide one workload, in this process
//	go run ./benchmark -selfcheck          the untraced set twice, compared
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// report is the last line a workload run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one workload measures")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for span files and the disk-store probe")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set twice and compare the medians with the bounds")
	describeOnly := flag.Bool("describe", false, "print BENCHMARK.json as the program defines it")
	flag.Parse()

	// Two processors at most: the numbers are sized for that, and a
	// workload must not look faster because the host has more.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *describeOnly:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(describe())
	case *selfcheck:
		err = runSelfcheck(o, os.Stdout)
	case o.workload == "":
		_, err = runAll(o, os.Stdout, os.Stdout)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect ends a run whose result was printed but is not correct.
var errIncorrect = fmt.Errorf("output checks failed")

// runOne runs a single workload in this process and prints its metrics for
// people, then the report as the last line.
func runOne(o options, w io.Writer) error {
	spec := workloadByName(o.workload)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := runCfg{seed: o.seed, seconds: o.seconds, scale: 1, probes: fullEffort}
	if o.trace != 0 {
		cfg.tr = newTracer()
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %d\n%s\n", spec.Name, o.seed, o.seconds, o.trace, machineFacts())

	res, err := spec.run(cfg)
	if err != nil {
		return err
	}
	rep, err := finish(spec, res, cfg, o.outDir, w)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", blob); err != nil {
		return err
	}
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// finish completes a workload's result — the metrics every workload takes
// the same way, and on a traced run the layer probes and the span file —
// prints it and builds the report.
func finish(spec *workloadSpec, res *result, cfg runCfg, outDir string, w io.Writer) (*report, error) {
	rep := &report{Metrics: make(map[string]metricValue)}
	if cfg.tr == nil {
		if _, ok := res.e2e["in_limit_share"]; !ok {
			res.e2e["in_limit_share"] = constantN(res.okShare(), res.attempted)
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.e2e["peak_rss_mb"] = constantN(rss, 1)
		for _, m := range endToEnd {
			s, ok := res.e2e[m.Name]
			res.check(ok && s.N > 0, 0, "end-to-end metric %s was not measured", m.Name)
			name := m.Name
			if a := spec.alias[m.Name]; a != "" {
				name += " [" + a + "]"
			}
			fmt.Fprintf(w, "e2e %-40s %-6s value=%-12.6g median=%-12.6g q1=%-12.6g q3=%-12.6g n=%d\n", name, m.Unit, s.Value, s.Median, s.Q1, s.Q3, s.N)
			rep.Metrics[m.Name] = metricValue{s.Value, m.Unit}
		}
	} else {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		probes, err := runProbes(cfg.seed, outDir, cfg.probes)
		if err != nil {
			return nil, err
		}
		for k, v := range res.layer {
			probes[k] = v
		}
		if bare := probes[spec.bare]; bare > 0 {
			probes["core.op_cost_ratio"] = probes["core.ns_per_gate_op"] / bare
		}
		for _, m := range perLayer {
			fmt.Fprintf(w, "layer %-40s %-8s %.6g\n", m.Name, m.Unit, probes[m.Name])
			rep.Metrics[m.Name] = metricValue{probes[m.Name], m.Unit}
		}
		for k := range probes {
			res.check(specNamed(perLayer, k), 0, "per-layer metric %s is not in the table", k)
		}
		path, err := cfg.tr.write(outDir, spec.Name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
		cfg.tr.selfTimes(w)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAILED CHECK:", f)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d; output checks %d, failed %d\n", res.attempted, res.failed, res.checks, len(res.failures))
	rep.Attempted, rep.Failed = max(res.attempted, 1), res.failed
	rep.Correct = len(res.failures) == 0
	return rep, nil
}

func specNamed(specs []metricSpec, name string) bool {
	for _, m := range specs {
		if m.Name == name {
			return true
		}
	}
	return false
}

// runAll runs every workload, each in a fresh process of this program, so
// that peak memory and allocation counts belong to one workload and one
// workload's failure does not lose the others' numbers. Child output goes to
// detail; the summary table goes to w.
func runAll(o options, w, detail io.Writer) (map[string]*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	reports := make(map[string]*report)
	var failed []string
	for _, spec := range workloadSpecs {
		cmd := exec.Command(self,
			"-workload", spec.Name,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(o.trace),
			"-out", o.outDir)
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(&out, detail)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		rep, parseErr := lastReport(out.Bytes())
		if parseErr == nil {
			reports[spec.Name] = rep
		}
		if runErr != nil || parseErr != nil {
			failed = append(failed, spec.Name)
		}
		fmt.Fprintln(detail)
	}
	specs := endToEnd
	if o.trace != 0 {
		specs = perLayer
	}
	fmt.Fprintf(w, "%-36s %-8s", "metric", "unit")
	for _, spec := range workloadSpecs {
		fmt.Fprintf(w, " %14s", spec.Name)
	}
	fmt.Fprintln(w)
	for _, m := range specs {
		fmt.Fprintf(w, "%-36s %-8s", m.Name, m.Unit)
		for _, spec := range workloadSpecs {
			if rep := reports[spec.Name]; rep != nil {
				fmt.Fprintf(w, " %14.6g", rep.Metrics[m.Name].Value)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	if len(failed) > 0 {
		return reports, fmt.Errorf("workloads failed: %v", failed)
	}
	return reports, nil
}

// lastReport parses the last line of a workload run's output.
func lastReport(out []byte) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("last output line is not a report: %w", err)
	}
	return &rep, nil
}

// runSelfcheck runs the untraced set twice and prints, per end-to-end
// metric and workload, both medians, how much worse the second is and the
// bound, marking what lies beyond it.
func runSelfcheck(o options, w io.Writer) error {
	o.trace = 0
	var sets [2]map[string]*report
	for i := range sets {
		reports, err := runAll(o, io.Discard, io.Discard)
		if err != nil {
			return fmt.Errorf("set %d: %w", i+1, err)
		}
		sets[i] = reports
	}
	beyond := 0
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s\n", "metric", "workload", "first", "second", "worse", "bound")
	for _, m := range endToEnd {
		for _, spec := range workloadSpecs {
			a, b := sets[0][spec.Name].Metrics[m.Name].Value, sets[1][spec.Name].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = "  BEYOND BOUND"
				beyond++
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", m.Name, spec.Name, a, b, 100*worse, 100*m.Bound, mark)
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d metric/workload pairs differ by more than their bound", beyond)
	}
	return nil
}
