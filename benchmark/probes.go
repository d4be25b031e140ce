package main

import (
	"bytes"
	"fmt"
	"math/cmplx"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"tqsim"
	"tqsim/internal/gate"
	"tqsim/internal/loadgen"
	"tqsim/internal/partition"
	"tqsim/internal/planner"
	"tqsim/internal/qasm"
	"tqsim/internal/resultstore"
	"tqsim/internal/rng"
	"tqsim/internal/serve"
	"tqsim/internal/statevec"
	"tqsim/internal/trajectory"
	"tqsim/internal/workloads"
)

// The layer probes time calls into each layer's public functions on fixed
// inputs. They do not depend on the workload: every traced run makes them,
// so each layer has a number beside whichever end-to-end metric moved.

// probeEffort sizes the probes: how long a timed loop runs and how many
// calls a handler median is taken over. The package's smoke test shrinks it.
type probeEffort struct {
	minTime time.Duration
	calls   int
}

var fullEffort = probeEffort{minTime: 30 * time.Millisecond, calls: 200}

// timeOp returns the mean nanoseconds of op over at least minTime, after one
// untimed call.
func timeOp(minTime time.Duration, op func()) float64 {
	op()
	n := 0
	start := time.Now()
	for time.Since(start) < minTime {
		op()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// kernelProbe is one statevec kernel at qubit positions given relative to
// the width: lo is qubit 1, hi is qubit n-2.
type kernelProbe struct {
	name  string
	apply func(n int) func(*statevec.State)
}

func applyGate(mk func(n int) gate.Gate) func(int) func(*statevec.State) {
	return func(n int) func(*statevec.State) {
		g := mk(n)
		return func(st *statevec.State) { st.Apply(g) }
	}
}

var kernelProbes = []kernelProbe{
	{"h_lo", applyGate(func(n int) gate.Gate { return gate.New(gate.KindH, 1) })},
	{"h_hi", applyGate(func(n int) gate.Gate { return gate.New(gate.KindH, n-2) })},
	{"rz", applyGate(func(n int) gate.Gate { return gate.NewParam(gate.KindRZ, []float64{0.3}, n/2) })},
	{"cx_lolo", applyGate(func(n int) gate.Gate { return gate.New(gate.KindCX, 2, 1) })},
	{"cx_lohi", applyGate(func(n int) gate.Gate { return gate.New(gate.KindCX, 1, n-2) })},
	{"cx_hihi", applyGate(func(n int) gate.Gate { return gate.New(gate.KindCX, n-2, n-3) })},
	{"cp_lohi", applyGate(func(n int) gate.Gate { return gate.NewParam(gate.KindCP, []float64{0.4}, 1, n-2) })},
	{"apply2q", applyGate(func(n int) gate.Gate { return gate.NewParam(gate.KindCRX, []float64{0.4}, n-2, n-3) })},
	{"phase_run8", func(n int) func(*statevec.State) {
		// Eight controlled phases sharing one anchor: a QFT row's worth.
		anchor := n / 2
		qubits := make([]int, 0, 8)
		phases := make([]complex128, 0, 8)
		for q := 1; len(qubits) < 8; q += 2 {
			if q == anchor {
				q++
			}
			qubits = append(qubits, q)
			phases = append(phases, cmplx.Exp(complex(0, 0.1*float64(len(qubits)+1))))
		}
		return func(st *statevec.State) { st.ApplyPhaseRun(anchor, qubits, phases) }
	}},
}

// spread puts a state into uniform superposition, so kernels see data.
func spread(st *statevec.State) {
	for q := 0; q < st.NumQubits(); q++ {
		st.Apply(gate.New(gate.KindH, q))
	}
}

// probeStatevec fills the statevec.* metrics: kernel rates at a width inside
// the L2 (q16, 1 MiB) and one beyond it (q22, 64 MiB, the roofline row),
// each q22 rate also as a fraction of CopyFrom's rate measured beside it.
func probeStatevec(out map[string]float64, pe probeEffort) {
	for _, n := range []int{16, 22} {
		st, dst := statevec.NewZero(n), statevec.NewZero(n)
		spread(st)
		amps := float64(st.Dim())
		copyAmpsPerS := amps / timeOp(pe.minTime, func() { dst.CopyFrom(st) }) * 1e9
		out[fmt.Sprintf("statevec.copy_bytes_per_s.q%d", n)] = copyAmpsPerS * statevec.AmpBytes
		for _, k := range kernelProbes {
			apply := k.apply(n)
			rate := amps / timeOp(pe.minTime, func() { apply(st) }) * 1e9
			out[fmt.Sprintf("statevec.%s_amps_per_s.q%d", k.name, n)] = rate
			if n == 22 {
				out[fmt.Sprintf("statevec.%s_frac_copy.q22", k.name)] = rate / copyAmpsPerS
			}
		}
		if n == 16 {
			r := rng.New(rng.SeedAt(1, 16))
			out["statevec.sample_ns.q16"] = timeOp(pe.minTime, func() { probeSink += st.Sample(r) })
		}
	}
	st := statevec.NewZero(10)
	spread(st)
	h, cx := gate.New(gate.KindH, 5), gate.New(gate.KindCX, 5, 4)
	out["statevec.h_amps_per_s.q10"] = float64(st.Dim()) / timeOp(pe.minTime, func() { st.Apply(h) }) * 1e9
	out["statevec.cx_amps_per_s.q10"] = float64(st.Dim()) / timeOp(pe.minTime, func() { st.Apply(cx) }) * 1e9
	out["statevec.ns_per_gate.bare.q16"] = bareNSPerGate(treeWide.circuit, pe)
	out["statevec.ns_per_gate.bare.q9"] = bareNSPerGate(treeNarrow.circuit, pe)
}

// probeSink keeps results the compiler could otherwise discard.
var probeSink uint64

// bareNSPerGate times ideal passes of a workload's circuit through
// State.Apply: the kernel time per gate with no executor and no noise.
func bareNSPerGate(name string, pe probeEffort) float64 {
	c := workloads.ByName(name)
	st := statevec.NewZero(c.NumQubits)
	return timeOp(pe.minTime, func() {
		st.ResetZero()
		st.ApplyAll(c.Gates)
	}) / float64(c.Len())
}

// probeNoise fills noise.*: the mean ApplyAfterGate call on each library
// workload's circuit and model, and the kernel applications it adds per
// gate, which repeat exactly for the fixed stream.
func probeNoise(out map[string]float64, pe probeEffort) {
	for _, p := range []struct {
		key string
		in  libInput
	}{{"sycamore.q9", treeNarrow}, {"depol.q16", treeWide}} {
		c, m := workloads.ByName(p.in.circuit), p.in.noise()
		st := statevec.NewZero(c.NumQubits)
		spread(st)
		var ops int
		pass := func() {
			r := rng.New(rng.SeedAt(1, 9))
			ops = 0
			for _, g := range c.Gates {
				ops += m.ApplyAfterGate(st, g, r)
			}
		}
		out["noise.apply_ns."+p.key] = timeOp(pe.minTime, pass) / float64(c.Len())
		if p.in.fidelity {
			out["noise.ops_per_gate.sycamore"] = float64(ops) / float64(c.Len())
		}
	}
}

// probePlanning fills partition.*, planner.*, workloads.*, qasm.* and
// circuit.*: what a request pays before it simulates.
func probePlanning(out map[string]float64, pe probeEffort) error {
	c, m := workloads.ByName(treeWide.circuit), treeWide.noise()
	var plan *partition.Plan
	out["partition.dcp_us"] = timeOp(pe.minTime, func() { plan = partition.Dynamic(c, m, treeWide.treeShots, partition.DCPOptions{}) }) / 1e3
	var err error
	out["planner.decide_us"] = timeOp(pe.minTime, func() { _, err = planner.Decide(plan, m, planner.Budget{}) }) / 1e3
	if err != nil {
		return err
	}
	out["workloads.by_name_us"] = timeOp(pe.minTime, func() { c = workloads.ByName("bv_n10") }) / 1e3
	src, err := qasm.Serialize(c)
	if err != nil {
		return err
	}
	out["qasm.parse_us"] = timeOp(pe.minTime, func() { _, err = qasm.Parse("bv_n10", src) }) / 1e3
	if err != nil {
		return err
	}
	out["circuit.digest_us"] = timeOp(pe.minTime, func() { probeSink += uint64(len(c.Digest())) }) / 1e3
	return nil
}

// probeBaselines fills trajectory.* and core.flat_shots_per_s: the two
// per-shot baselines (the trajectory simulator and the executor's flat plan)
// on the tree_narrow input.
func probeBaselines(out map[string]float64, seed uint64) error {
	const shots = 2000
	c, m := workloads.ByName(treeNarrow.circuit), treeNarrow.noise()
	t0 := time.Now()
	tr := trajectory.Run(c, m, shots, trajectory.Options{Seed: seed})
	wall := time.Since(t0)
	out["trajectory.shots_per_s"] = shots / wall.Seconds()
	out["trajectory.ns_per_gate_op"] = float64(wall.Nanoseconds()) / float64(tr.GateApplications)
	t0 = time.Now()
	if _, err := tqsim.RunBackend(c, m, shots, tqsim.Options{Seed: seed, Backend: "statevec"}); err != nil {
		return err
	}
	out["core.flat_shots_per_s"] = shots / time.Since(t0).Seconds()
	return nil
}

// probeSweepPrep fills sweep.prepare_ms and snapcache.*: building the grid,
// and building versus finding a plan's ideal boundary states.
func probeSweepPrep(out map[string]float64, seed uint64, pe probeEffort) error {
	var err error
	out["sweep.prepare_ms"] = timeOp(pe.minTime, func() { _, err = tqsim.PrepareSweep(sweepSpec(seed, sweepShots, false)) }) / 1e6
	if err != nil {
		return err
	}
	plan := tqsim.PlanStructure(workloads.ByName("qft_n12"), []int{16, 4, 2})
	t0 := time.Now()
	sc := tqsim.NewSnapshotCache(0)
	if _, err := sc.ForPlan(plan); err != nil {
		return err
	}
	out["snapcache.forplan_miss_ms"] = time.Since(t0).Seconds() * 1e3
	out["snapcache.forplan_hit_us"] = timeOp(pe.minTime, func() { _, err = sc.ForPlan(plan) }) / 1e3
	return err
}

// probeResultStore fills resultstore.*: 1 KiB blobs against a memory store
// at its cap, so every put evicts, and against a store on disk.
func probeResultStore(out map[string]float64, dir string, pe probeEffort) error {
	blob := bytes.Repeat([]byte{'x'}, 1024)
	mem, err := resultstore.Open(resultstore.Config{MaxEntries: serveStoreEntries})
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	for i := 0; i < serveStoreEntries; i++ {
		mem.Put(key(i), blob)
	}
	i := serveStoreEntries
	out["resultstore.put_ns"] = timeOp(pe.minTime, func() { mem.Put(key(i), blob); i++ })
	hit := key(i - 1)
	out["resultstore.get_hit_ns"] = timeOp(pe.minTime, func() { mem.Get(hit) })
	out["resultstore.get_miss_ns"] = timeOp(pe.minTime, func() { mem.Get("absent") })

	tmp, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// One memory entry, so every get below is served from disk.
	disk, err := resultstore.Open(resultstore.Config{MaxEntries: 1, Dir: tmp})
	if err != nil {
		return err
	}
	n := 0
	out["resultstore.put_disk_us"] = timeOp(pe.minTime, func() { disk.Put(key(n), blob); n++ }) / 1e3
	j := 0
	out["resultstore.get_disk_us"] = timeOp(pe.minTime, func() { disk.Get(key(j % n)); j++ }) / 1e3
	return nil
}

// probeHandlers fills serve.handler_*: single requests through the server's
// handler with no network, one after another, each the median of pe.calls calls or a share of them.
func probeHandlers(out map[string]float64, seed uint64, pe probeEffort) error {
	srv := serve.New(serve.Config{StoreEntries: serveStoreEntries, SnapshotCacheBytes: 256 << 20})
	call := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"type":"error"`) {
			return fmt.Errorf("handler probe %s answered %d: %.200s", path, rec.Code, rec.Body.String())
		}
		return nil
	}
	medianOf := func(n int, path string, body func(i int) ([]byte, error)) (float64, error) {
		ms := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			b, err := body(i)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if err := call(path, b); err != nil {
				return 0, err
			}
			ms = append(ms, time.Since(t0).Seconds()*1e3)
		}
		return median(ms), nil
	}
	replay, err := newReplaySource(seed)
	if err != nil {
		return err
	}
	// Store hits: the same body again, named and inline-QASM.
	for _, class := range []struct {
		name string
		key  int
	}{{"named", 4}, {"qasm", 0}} {
		body := replay.bodies[class.key]
		if replayIsQASM(class.key) != (class.name == "qasm") {
			return fmt.Errorf("replay key %d is not of class %s", class.key, class.name)
		}
		if err := call("/v1/jobs", body); err != nil {
			return err
		}
		ms, err := medianOf(pe.calls, "/v1/jobs", func(int) ([]byte, error) { return body, nil })
		if err != nil {
			return err
		}
		out["serve.handler_hit_us."+class.name] = ms * 1e3
	}
	fresh := func(i int) ([]byte, error) {
		return replayBody(0, rng.SeedAt(rng.SeedAt(seed, phaseProbe), uint64(i)), false, nil)
	}
	if out["serve.handler_fresh_ms.bv_n10"], err = medianOf(pe.calls/2, "/v1/jobs", fresh); err != nil {
		return err
	}
	ms, err := medianOf(pe.calls, "/v1/plan", fresh)
	if err != nil {
		return err
	}
	out["serve.handler_plan_us"] = ms * 1e3
	sweeps := loadgen.Spec{Rate: 1, Duration: time.Second, Seed: seed,
		Mix: []loadgen.MixEntry{{Weight: 1, Kind: "sweep", Circuit: "bv_n8", Shots: 100, NoisePoints: 2, Repeats: 1}}}
	out["serve.handler_sweep_ms"], err = medianOf(max(pe.calls/6, 3), "/v1/sweeps", func(i int) ([]byte, error) {
		r, err := sweeps.RequestAt(i)
		if err != nil {
			return nil, err
		}
		return r.Body, nil
	})
	return err
}

// runProbes makes every layer probe. dir is where the disk store probe may
// write.
func runProbes(seed uint64, dir string, pe probeEffort) (map[string]float64, error) {
	out := make(map[string]float64)
	probeStatevec(out, pe)
	probeNoise(out, pe)
	if err := probePlanning(out, pe); err != nil {
		return nil, err
	}
	if err := probeBaselines(out, seed); err != nil {
		return nil, err
	}
	if err := probeSweepPrep(out, seed, pe); err != nil {
		return nil, err
	}
	if err := probeResultStore(out, dir, pe); err != nil {
		return nil, err
	}
	if err := probeHandlers(out, seed, pe); err != nil {
		return nil, err
	}
	return out, nil
}
