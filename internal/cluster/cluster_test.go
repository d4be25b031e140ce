package cluster

import (
	"math"
	"testing"

	"tqsim/internal/gate"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/qmath"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
	"tqsim/internal/workloads"
)

// randomGateStream builds a 1q/2q gate mix touching local and global qubits.
func randomGateStream(n int, count int, seed uint64) []gate.Gate {
	r := rng.New(seed)
	var gs []gate.Gate
	for len(gs) < count {
		switch r.Intn(5) {
		case 0:
			gs = append(gs, gate.New(gate.KindH, r.Intn(n)))
		case 1:
			gs = append(gs, gate.NewParam(gate.KindRZ, []float64{r.Float64()}, r.Intn(n)))
		case 2:
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				gs = append(gs, gate.New(gate.KindCX, a, b))
			}
		case 3:
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				gs = append(gs, gate.NewParam(gate.KindCP, []float64{r.Float64()}, a, b))
			}
		case 4:
			u := qmath.RandomUnitary(4, r)
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				gs = append(gs, gate.NewUnitary(u, "su4", a, b))
			}
		}
	}
	return gs
}

// applyBoth runs gs through a Backend over nodes shards and through
// State.Apply, and fails unless the amplitudes are bitwise equal.
func applyBoth(t *testing.T, n, nodes int, gs []gate.Gate) {
	t.Helper()
	ref, got := statevec.NewZero(n), statevec.NewZero(n)
	b := NewBackend(nodes)
	for _, g := range gs {
		ref.Apply(g)
		b.Apply(got, g)
	}
	rr, ri := ref.Components()
	gr, gi := got.Components()
	for i := range rr {
		if gr[i] != rr[i] || gi[i] != ri[i] {
			t.Fatalf("%d nodes: amplitude %d is %v, single node %v", nodes, i,
				got.Amplitude(uint64(i)), ref.Amplitude(uint64(i)))
		}
	}
}

// TestDistStateMatchesSingleNode: a random 1q/2q stream on the cluster
// backend gives the single-node amplitudes at every shard count.
func TestDistStateMatchesSingleNode(t *testing.T) {
	const n = 6
	gs := randomGateStream(n, 40, 3)
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		applyBoth(t, n, nodes, gs)
	}
}

// TestDistStateCommunicationAccounting pins the traffic rule: each gate's
// booked bytes and exchanges, on a fresh backend.
func TestDistStateCommunicationAccounting(t *testing.T) {
	cases := []struct {
		n, nodes        int
		g               gate.Gate
		bytes, exchange int64
	}{
		// 5 qubits on 4 shards: qubits 3 and 4 are global, a shard is
		// 8 amplitudes = 128 B.
		{5, 4, gate.New(gate.KindH, 0), 0, 0},
		{5, 4, gate.New(gate.KindH, 4), 512, 2},
		{5, 4, gate.New(gate.KindCX, 3, 4), 384, 3},
		{5, 4, gate.New(gate.KindCX, 0, 4), 512, 2},
		{5, 4, gate.NewParam(gate.KindRZ, []float64{0.3}, 3), 512, 2},
		{5, 4, gate.New(gate.KindCCX, 2, 3, 4), 0, 0},
		{5, 4, gate.New(gate.KindI, 4), 0, 0},
		// 2 qubits cannot give 8 shards a local qubit each: 2 shards.
		{2, 8, gate.New(gate.KindH, 1), 64, 1},
		// A node count rounds down to a power of two: 6 books like 4.
		{5, 6, gate.New(gate.KindH, 4), 512, 2},
		{5, 6, gate.New(gate.KindCX, 3, 4), 384, 3},
		// A single shard exchanges nothing.
		{5, 1, gate.New(gate.KindH, 4), 0, 0},
	}
	for _, tc := range cases {
		b := NewBackend(tc.nodes)
		b.Apply(statevec.NewZero(tc.n), tc.g)
		if bytes, exch := b.Traffic(); bytes != tc.bytes || exch != tc.exchange {
			t.Errorf("%d qubits, %d nodes, %v: %d B / %d exchanges, want %d B / %d",
				tc.n, tc.nodes, tc.g, bytes, exch, tc.bytes, tc.exchange)
		}
	}
}

// TestDistStateMixedLocalityGate: gates with one local and one global
// operand, either way round, match the single-node engine bitwise.
func TestDistStateMixedLocalityGate(t *testing.T) {
	applyBoth(t, 5, 4, []gate.Gate{
		gate.New(gate.KindH, 0),
		gate.New(gate.KindCX, 0, 4),   // local control, global target
		gate.New(gate.KindCX, 4, 1),   // global control, local target
		gate.New(gate.KindCZ, 3, 4),   // both global
		gate.New(gate.KindSWAP, 2, 3), // local/global
	})
}

// TestShards: the one shard-count rule, including requests whose log2 loop
// would never end and counts that are not a power of two.
func TestShards(t *testing.T) {
	for _, tc := range []struct{ requested, qubits, want int }{
		{0, 10, DefaultNodes},
		{-3, 10, DefaultNodes},
		{1, 10, 1},
		{6, 10, 4},
		{8, 10, 8},
		{8, 3, 4},
		{8, 1, 1},
		{0, 2, 2},
		{1 << 62, 12, 1 << 11},
		{math.MaxInt, 30, 1 << 29},
	} {
		if got := Shards(tc.requested, tc.qubits); got != tc.want {
			t.Errorf("Shards(%d, %d) = %d, want %d", tc.requested, tc.qubits, got, tc.want)
		}
	}
}

func TestCostModelStrongScalingShape(t *testing.T) {
	// Figure 13a's shape: larger circuits scale better because compute
	// per node shrinks slower than communication grows.
	m := noise.NewSycamore()
	nodes := []int{1, 2, 4, 8, 16, 32}
	small := StrongScaling(workloads.BV(22, workloads.BVSecret(22)), m, 100, nodes)
	large := StrongScaling(workloads.QFT(28, true), m, 100, nodes)
	if small[len(small)-1].Speedup >= float64(nodes[len(nodes)-1]) {
		t.Fatalf("small circuit scaled perfectly (%v), expected comm-bound", small[len(small)-1].Speedup)
	}
	if large[len(large)-1].Speedup <= small[len(small)-1].Speedup {
		t.Fatalf("large circuit (%v) does not outscale small (%v)",
			large[len(large)-1].Speedup, small[len(small)-1].Speedup)
	}
	// Speedups increase with nodes for the large circuit.
	for i := 1; i < len(large); i++ {
		if large[i].Speedup < large[i-1].Speedup*0.9 {
			t.Fatalf("large circuit speedup regressed at %d nodes", large[i].Nodes)
		}
	}
}

func TestCostModelTQSimBeatsBaseline(t *testing.T) {
	// Figure 13b: TQSim's modeled time undercuts the baseline's at every
	// node count.
	m := noise.NewSycamore()
	c := workloads.QFT(24, true)
	plan := partition.Dynamic(c, m, 4000, partition.DCPOptions{CopyCost: 30})
	if plan.Levels() < 2 {
		t.Fatalf("DCP degenerate: %v", plan.Structure())
	}
	for _, nodes := range []int{1, 4, 16} {
		cfg := DefaultNetwork(nodes)
		base := cfg.EstimateBaseline(c, m, plan.TotalOutcomes())
		tq := cfg.EstimatePlan(plan, m)
		if tq.TotalSec >= base.TotalSec {
			t.Fatalf("%d nodes: TQSim %v >= baseline %v", nodes, tq.TotalSec, base.TotalSec)
		}
		speedup := base.TotalSec / tq.TotalSec
		if speedup > 6 {
			t.Fatalf("%d nodes: implausible modeled speedup %v", nodes, speedup)
		}
	}
}

func TestCostReportComposition(t *testing.T) {
	m := noise.NewSycamore()
	c := workloads.QFT(20, true)
	cfg := DefaultNetwork(4)
	rep := cfg.EstimateBaseline(c, m, 10)
	if rep.TotalSec <= 0 || rep.ComputeSec <= 0 || rep.CopySec <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	if math.Abs(rep.TotalSec-(rep.ComputeSec+rep.CommSec+rep.CopySec)) > 1e-12 {
		t.Fatal("total != sum of parts")
	}
	if rep.GlobalGateShare <= 0 || rep.GlobalGateShare >= 1 {
		t.Fatalf("global gate share %v", rep.GlobalGateShare)
	}
	// Single node: no communication.
	rep1 := DefaultNetwork(1).EstimateBaseline(c, m, 10)
	if rep1.CommSec != 0 {
		t.Fatalf("1-node comm %v", rep1.CommSec)
	}
}
