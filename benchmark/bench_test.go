package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"

	"tqsim"
)

func TestQuantileExactSamples(t *testing.T) {
	s := []float64{1, 2, 3, 4, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10}, {0.875, 7}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", s, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 3}, 0.5); got != 2 {
		t.Errorf("median of an even count = %g, want the mean of the middle pair", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g", got)
	}
	sum := summarize([]float64{10, 1, 4, 3, 2})
	if want := (summary{Value: 3, Median: 3, Q1: 2, Q3: 4, N: 5}); sum != want {
		t.Errorf("summarize = %+v, want %+v", sum, want)
	}
	if r, d := fastRate([]float64{10, 1, 4, 3, 2}), fastTime([]float64{10, 1, 4, 3, 2}); r.Value != 4 || d.Value != 2 || r.Median != 3 {
		t.Errorf("fast quartiles: rate %+v, time %+v, want the upper and the lower quartile", r, d)
	}

	// A tail percentile needs ten samples beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i)
	}
	if got := tailQuantile(hundred, 0.99); got != 0 {
		t.Errorf("p99 of 100 samples = %g, want 0 (one sample beyond it)", got)
	}
	if got := tailQuantile(hundred, 0.9); got == 0 {
		t.Error("p90 of 100 samples withheld, but ten samples lie beyond it")
	}
}

func TestSourcesDeterministicBySeed(t *testing.T) {
	a, err := newReplaySource(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newReplaySource(7)
	if err != nil {
		t.Fatal(err)
	}
	other, err := newReplaySource(8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	want := make([]request, n)
	for i := range want {
		if want[i], err = a.at(phaseOpen, i); err != nil {
			t.Fatal(err)
		}
	}
	// The same requests from several goroutines, in reverse order, from a
	// second source built from the same seed.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := n - 1; i >= 0; i-- {
				got, err := b.at(phaseOpen, i)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("request %d differs between two sources of one seed (err %v)", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	replays, inline, differ := 0, 0, 0
	seen := make(map[int]bool)
	for i, rq := range want {
		if rq.key >= 0 {
			replays++
			seen[rq.key] = true
			if replayIsQASM(rq.key) {
				inline++
				if !bytes.Contains(rq.body, []byte("OPENQASM")) {
					t.Fatalf("key %d is of the inline class but its body names a circuit: %s", rq.key, rq.body)
				}
			}
		}
		o, _ := other.at(phaseOpen, i)
		p, _ := a.at(phaseClosed, i)
		if !bytes.Equal(o.body, rq.body) && !bytes.Equal(p.body, rq.body) {
			differ++
		}
	}
	if share := float64(replays) / n; math.Abs(share-replayShare) > 0.06 {
		t.Errorf("replay share %.3f, want about %.2f", share, replayShare)
	}
	if inline == 0 || inline == replays {
		t.Errorf("%d of %d replays carry inline QASM, want both classes", inline, replays)
	}
	if len(seen) < 50 {
		t.Errorf("only %d distinct keys in %d draws: the population is not being spread", len(seen), n)
	}
	if differ < n*9/10 {
		t.Errorf("only %d of %d requests differ from another seed's and another phase's", differ, n)
	}
	ranks := make(map[int]bool)
	for r := 0; r < replayKeys; r++ {
		ranks[keyOfRank(r)] = true
	}
	if len(ranks) != replayKeys {
		t.Errorf("rank -> key maps onto %d keys, want all %d", len(ranks), replayKeys)
	}

	f := freshSource{seed: 7}
	x, err := f.at(phaseOpen, 3)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := f.at(phaseOpen, 3)
	z, _ := f.at(phaseClosed, 3)
	if !bytes.Equal(x.body, y.body) || bytes.Equal(x.body, z.body) {
		t.Error("fresh bodies must repeat for one (seed, phase, index) and differ across phases")
	}
}

// fixedSource makes the same small request every time.
type fixedSource struct{}

func (fixedSource) at(uint64, int) (request, error) {
	return request{path: "/", body: []byte("{}"), key: -1}, nil
}

// A server that stalls once must not hide the stall from the generator: the
// requests that fell due while it lasted are sent late (they wait for the
// one connection), and both their latency from the due instant and
// gen.late_p99 show it. Timing from the send instant would report them fast.
func TestOpenLoopCountsTheWaitAStallImposes(t *testing.T) {
	const stall = 200 * time.Millisecond
	var once sync.Once
	var mu sync.Mutex
	served := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return
		}
		mu.Lock()
		served++
		nth := served
		mu.Unlock()
		if nth == 10 {
			once.Do(func() { time.Sleep(stall) })
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	g := &generator{client: client, url: ts.URL, seed: 3, src: fixedSource{}}
	outs, err := g.openLoop(phaseOpen, 200, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var latency, late []float64
	delayed := 0
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("request %d answered %d", i, o.status)
		}
		latency = append(latency, o.latencyMS)
		late = append(late, o.lateMS)
		if o.latencyMS > 50 {
			delayed++
			if o.latencyMS-o.lateMS > 50 && i != 9 {
				t.Errorf("request %d: %.0f ms from due but sent only %.0f ms late: its wait was not behind the stall", i, o.latencyMS, o.lateMS)
			}
		}
	}
	sort.Float64s(latency)
	sort.Float64s(late)
	// At 200 req/s about 40 requests fall due inside the stall.
	if delayed < 10 {
		t.Errorf("%d of %d requests took over 50 ms from their due instant, want the ones due during the %v stall", delayed, len(outs), stall)
	}
	if p50 := quantile(latency, 0.5); p50 > 50 {
		t.Errorf("median latency %.1f ms: the stall should touch a minority of requests", p50)
	}
	if got := quantile(late, 0.99); got < float64(stall.Milliseconds())/2 {
		t.Errorf("gen.late_p99 = %.1f ms, want it to show the %v stall", got, stall)
	}
}

func TestChecksFailOnCorruption(t *testing.T) {
	c := tqsim.BenchmarkByName(treeNarrow.circuit)
	tree, err := tqsim.RunTQSim(c, treeNarrow.noise(), 500, tqsim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	res.attempted = tree.Outcomes
	res.checkHistogram("clean", tree.Counts, tree.Outcomes, 500)
	if res.failed != 0 || len(res.failures) != 0 {
		t.Fatalf("clean histogram failed its check: %v", res.failures)
	}
	clean := exactOf(tree)

	for k := range tree.Counts {
		tree.Counts[k]++ // one count flipped
		break
	}
	res.checkHistogram("corrupt", tree.Counts, tree.Outcomes, 500)
	if res.failed == 0 || len(res.failures) != 1 {
		t.Fatalf("flipped count passed: failed=%d failures=%v", res.failed, res.failures)
	}
	if res.okShare() >= 1 {
		t.Errorf("ok share %.3f after a failed check", res.okShare())
	}
	if exactOf(tree) == clean {
		t.Error("exact counts do not see a flipped histogram count")
	}
	rep, err := finish(workloadByName("tree_narrow"), res, runCfg{}, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("report of a corrupted run: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

// Every workload at a twentieth of its size: all end-to-end metrics present
// and non-zero, no failed operation, and a report of the contract's shape.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := runCfg{seed: 5, seconds: 0.3, scale: 0.05}
			res, err := spec.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			rep, err := finish(&spec, res, cfg, t.TempDir(), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics reported, want %d", len(rep.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := rep.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (present %v)", m.Name, v, ok)
				}
			}
		})
	}
}

// The traced run of one workload: every per-layer metric of the table and no
// other, spans written, the probes of every layer positive.
func TestSmokeTraced(t *testing.T) {
	spec := workloadByName("sweep_grid")
	cfg := runCfg{seed: 5, seconds: 0.3, scale: 0.05, tr: newTracer(), probes: probeEffort{minTime: time.Millisecond, calls: 6}}
	res, err := spec.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	rep, err := finish(spec, res, cfg, dir, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced run not correct:\n%s", out.String())
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics reported, want %d", len(rep.Metrics), len(perLayer))
	}
	observed := regexp.MustCompile(`^(core\.(gate|state|nodes|peak|work|ns_per|op_cost|copy_share|par2)|paper\.|serve\.(store|plan_cache|snapshot|rejected|server|client|handler_busy|response)|gen\.|loadgen\.|sweep\.(work|prefix|distinct|reuse))`)
	for _, m := range perLayer {
		v, ok := rep.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %+v (present %v)", m.Name, v, ok)
		}
		if !observed.MatchString(m.Name) && v.Value <= 0 && m.Name[:5] != "proc." {
			t.Errorf("probe %s = %g, want a positive measurement", m.Name, v.Value)
		}
	}
	for _, name := range []string{"sweep.work_ratio", "sweep.prefix_reuse_hits", "core.gate_ops", "trace.overhead_ratio"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g on the workload that drives it", name, rep.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(dir + "/trace-sweep_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]span)
	names := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name]++
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.Trace != s.Trace) {
			t.Errorf("span %+v: parent missing or of another trace", s)
		}
	}
	for _, name := range []string{"workload.repeat", "sweep.prepare", "sweep.run", "sweep.point"} {
		if names[name] == 0 {
			t.Errorf("no %s span recorded (have %v)", name, names)
		}
	}
}

// BENCHMARK.json is generated from the tables in spec.go (-describe) and
// must stay equal to them, within the limits the driver's contract sets.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(describe())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with: go run ./benchmark -describe > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	useName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		useName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		useName(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, m := range perLayer {
		useName(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}
