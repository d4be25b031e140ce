package main

import "fmt"

// metricSpec names one metric. The tables below are the single definition
// of what the benchmark reports: BENCHMARK.json is generated from them
// (-describe) and a test keeps the two equal.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics every workload reports on its untraced run.
// Each has one definition that holds on every workload; README.md gives the
// name the quantity has on each (tree_shots_per_s, req_per_s, ...).
var endToEnd = []metricSpec{
	// Everything before measuring: inputs, circuit and plan, server start,
	// cache warm-up, a small untimed run. Median of the run's set-ups.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Work completed per second on the path the workload is about:
	// outcomes of RunTQSim, points of RunSweep, closed-loop requests.
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// The same inputs on the path without the reuse the workload
	// exercises: per-shot baseline, sweep without cross-point reuse,
	// server without a result store. Gated on its own, so that the ratio
	// of the two cannot improve by the reference getting slower.
	{Name: "ref_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// How well the path's results match the reference's: 1 - |fidelity
	// gap| where the two are independent samples (tree_narrow), else the
	// share of compared histograms or bodies that are identical.
	{Name: "agreement", Unit: "share", Better: "higher", Bound: 0.03},
	// Time to one result: of a RunTQSim or RunSweep call the fast-quartile
	// wall time; of open-loop requests the median latency, each timed from
	// the instant it was due.
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// Share of operations that completed correctly and, for open-loop
	// requests, within latencyLimitMS of their due instant.
	{Name: "in_limit_share", Unit: "share", Better: "higher", Bound: 0.02},
	// VmHWM of the workload's own process.
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics every workload reports on its traced run: the
// layer probes, which do not depend on the workload, then what the workload
// observed of the layers it drives (0 where it drives none of that layer).
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	hi := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	lo := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	specs := []metricSpec{
		hi("statevec.copy_bytes_per_s.q16", "B/s"),
		hi("statevec.copy_bytes_per_s.q22", "B/s"),
	}
	for _, k := range kernelProbes {
		specs = append(specs,
			hi(fmt.Sprintf("statevec.%s_amps_per_s.q16", k.name), "amps/s"),
			hi(fmt.Sprintf("statevec.%s_amps_per_s.q22", k.name), "amps/s"),
			hi(fmt.Sprintf("statevec.%s_frac_copy.q22", k.name), "ratio"))
	}
	return append(specs,
		hi("statevec.h_amps_per_s.q10", "amps/s"),
		hi("statevec.cx_amps_per_s.q10", "amps/s"),
		lo("statevec.sample_ns.q16", "ns"),
		lo("statevec.ns_per_gate.bare.q16", "ns"),
		lo("statevec.ns_per_gate.bare.q9", "ns"),
		lo("noise.apply_ns.sycamore.q9", "ns"),
		lo("noise.apply_ns.depol.q16", "ns"),
		lo("noise.ops_per_gate.sycamore", "count"),
		lo("partition.dcp_us", "us"),
		lo("planner.decide_us", "us"),
		lo("workloads.by_name_us", "us"),
		lo("qasm.parse_us", "us"),
		lo("circuit.digest_us", "us"),
		hi("trajectory.shots_per_s", "shots/s"),
		lo("trajectory.ns_per_gate_op", "ns"),
		hi("core.flat_shots_per_s", "shots/s"),
		lo("sweep.prepare_ms", "ms"),
		lo("snapcache.forplan_miss_ms", "ms"),
		lo("snapcache.forplan_hit_us", "us"),
		lo("resultstore.get_hit_ns", "ns"),
		lo("resultstore.get_miss_ns", "ns"),
		lo("resultstore.put_ns", "ns"),
		lo("resultstore.put_disk_us", "us"),
		lo("resultstore.get_disk_us", "us"),
		lo("serve.handler_hit_us.named", "us"),
		lo("serve.handler_hit_us.qasm", "us"),
		lo("serve.handler_fresh_ms.bv_n10", "ms"),
		lo("serve.handler_plan_us", "us"),
		lo("serve.handler_sweep_ms", "ms"),

		lo("core.gate_ops", "count"),
		lo("core.state_copies", "count"),
		lo("core.nodes", "count"),
		lo("core.peak_state_bytes", "B"),
		lo("core.work_ratio", "ratio"),
		lo("core.ns_per_gate_op", "ns"),
		lo("core.op_cost_ratio", "ratio"),
		lo("core.copy_share_est", "share"),
		hi("core.par2_speedup", "ratio"),
		hi("paper.tree_speedup", "ratio"),
		lo("paper.fidelity_gap", "abs"),
		lo("sweep.work_ratio", "ratio"),
		hi("sweep.prefix_reuse_hits", "count"),
		lo("sweep.distinct_plans", "count"),
		hi("sweep.reuse_off_points_per_s", "points/s"),
		hi("serve.store_hit_ratio", "ratio"),
		hi("serve.plan_cache_hit_ratio", "ratio"),
		hi("serve.snapshot_hit_ratio", "ratio"),
		lo("serve.rejected_429", "count"),
		lo("serve.server_p50_ms", "ms"),
		lo("serve.client_minus_server_p50_ms", "ms"),
		lo("serve.handler_busy_share", "share"),
		lo("serve.response_bytes_mean", "B"),
		lo("gen.late_p99_ms", "ms"),
		hi("gen.offered_rps", "1/s"),
		lo("gen.dropped", "count"),
		lo("loadgen.p95_ms", "ms"),
		lo("loadgen.p99_ms", "ms"),
		lo("proc.allocs_per_op", "count"),
		lo("proc.alloc_bytes_per_op", "B"),
		lo("proc.gc_cycles", "count"),
		lo("proc.gc_pause_ms_total", "ms"),
		lo("trace.overhead_ratio", "ratio"),
	)
}

// workloadSpec is one workload: its name, why it exists, how to run it, the
// name each end-to-end metric goes by on it, and the bare-kernel probe its
// executor cost is compared with.
type workloadSpec struct {
	Name  string
	Why   string
	run   func(runCfg) (*result, error)
	alias map[string]string
	bare  string
}

var (
	treeAlias     = map[string]string{"ops_per_s": "tree_shots_per_s", "ref_ops_per_s": "baseline_shots_per_s"}
	fidelityAlias = map[string]string{"ops_per_s": "tree_shots_per_s", "ref_ops_per_s": "baseline_shots_per_s", "agreement": "1-fidelity_gap"}
	serveAlias    = map[string]string{"ops_per_s": "req_per_s", "ref_ops_per_s": "storeless_req_per_s", "latency_ms": "p50_ms"}
)

var workloadSpecs = []workloadSpec{
	{
		Name:  "tree_wide",
		Why:   "qpe_n16 (1 MiB states) under light depolarizing noise: kernels, state copies and prefix reuse do the work; store and server do none",
		run:   func(c runCfg) (*result, error) { return runLib(treeWide, c) },
		alias: treeAlias,
		bare:  "statevec.ns_per_gate.bare.q16",
	},
	{
		Name:  "tree_narrow",
		Why:   "qpe_n9_0 (8 KiB states) under Sycamore noise at 20000 shots: kernels are nearly free, so per-node and per-shot overhead, noise sampling and copies dominate; the fidelity gap is resolvable",
		run:   func(c runCfg) (*result, error) { return runLib(treeNarrow, c) },
		alias: fidelityAlias,
		bare:  "statevec.ns_per_gate.bare.q9",
	},
	{
		Name:  "sweep_grid",
		Why:   "RunSweep on qft_n12 over 4 noise points x 2 repeats: the same executor behind plan dedupe and cross-point prefix snapshots, so a core change that helps trees but hurts the prefix hook shows",
		run:   runSweepGrid,
		alias: map[string]string{"ops_per_s": "sweep_points_per_s", "ref_ops_per_s": "reuse_off_points_per_s"},
	},
	{
		Name:  "serve_fresh",
		Why:   "in-process tqsimd under the default mix with a fresh seed per request: every request misses the store, plans, simulates, writes and evicts; the cache-bypassed serve path",
		run:   func(c runCfg) (*result, error) { return runServe(serveFresh, c) },
		alias: serveAlias,
	},
	{
		Name:  "serve_replay",
		Why:   "90% of requests Zipf-drawn from a key population twice the result store, named and inline-QASM: the store reads beside evicting writes and request-to-circuit, key and encode dominate",
		run:   func(c runCfg) (*result, error) { return runServe(serveReplay, c) },
		alias: serveAlias,
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].Name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}

// runSeconds is how long one run measures by default; BENCHMARK.json hands
// the same number to the driver.
const runSeconds = 18

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []boundedSpec `json:"end_to_end"`
	PerLayer   []metricSpec  `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// boundedSpec is metricSpec with the bound always written.
type boundedSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func describe() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloadSpecs {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedSpec{m.Name, m.Unit, m.Better, m.Bound})
	}
	return doc
}
