package stabilizer

import (
	"math"
	"reflect"
	"testing"

	"tqsim/internal/circuit"
	"tqsim/internal/gate"
	"tqsim/internal/metrics"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
	"tqsim/internal/trajectory"
	"tqsim/internal/workloads"
)

func TestZeroStateMeasuresZero(t *testing.T) {
	tab := New(4)
	r := rng.New(1)
	if out := tab.MeasureAll(r); out != 0 {
		t.Fatalf("zero state measured %b", out)
	}
}

func TestXFlipsOutcome(t *testing.T) {
	tab := New(3)
	tab.X(1)
	if out := tab.MeasureAll(rng.New(1)); out != 0b010 {
		t.Fatalf("X result %b", out)
	}
}

func TestHGivesRandomOutcome(t *testing.T) {
	r := rng.New(7)
	ones := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		tab := New(1)
		tab.H(0)
		ones += tab.Measure(0, r)
	}
	f := float64(ones) / trials
	if math.Abs(f-0.5) > 0.02 {
		t.Fatalf("H outcome frequency %v", f)
	}
}

func TestMeasurementCollapse(t *testing.T) {
	// After measuring a superposed qubit, remeasuring gives the same bit.
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		tab := New(1)
		tab.H(0)
		first := tab.Measure(0, r)
		second := tab.Measure(0, r)
		if first != second {
			t.Fatal("measurement did not collapse the state")
		}
	}
}

func TestBellCorrelations(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		tab := New(2)
		tab.H(0)
		tab.CX(0, 1)
		a := tab.Measure(0, r)
		b := tab.Measure(1, r)
		if a != b {
			t.Fatal("bell pair anticorrelated")
		}
	}
}

func TestGHZ(t *testing.T) {
	r := rng.New(13)
	sawZero, sawOnes := false, false
	for i := 0; i < 200; i++ {
		tab := New(5)
		tab.H(0)
		for q := 1; q < 5; q++ {
			tab.CX(q-1, q)
		}
		out := tab.MeasureAll(r)
		if out != 0 && out != 31 {
			t.Fatalf("GHZ measured %b", out)
		}
		if out == 0 {
			sawZero = true
		} else {
			sawOnes = true
		}
	}
	if !sawZero || !sawOnes {
		t.Fatal("GHZ outcomes not random")
	}
}

func TestSGate(t *testing.T) {
	// HSSH = HZH = X: |0> -> |1>.
	tab := New(1)
	tab.H(0)
	tab.S(0)
	tab.S(0)
	tab.H(0)
	if out := tab.Measure(0, rng.New(1)); out != 1 {
		t.Fatalf("HSSH|0> measured %d", out)
	}
}

func TestSdgViaApply(t *testing.T) {
	tab := New(1)
	c := circuit.New("sdg", 1).H(0).S(0).Sdg(0).H(0)
	for _, g := range c.Gates {
		if err := tab.Apply(g); err != nil {
			t.Fatal(err)
		}
	}
	if out := tab.Measure(0, rng.New(1)); out != 0 {
		t.Fatalf("H S Sdg H |0> measured %d", out)
	}
}

func TestSwap(t *testing.T) {
	tab := New(2)
	tab.X(0)
	if err := tab.Apply(gate.New(gate.KindSWAP, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if out := tab.MeasureAll(rng.New(1)); out != 0b10 {
		t.Fatalf("swap result %b", out)
	}
}

func TestIsClifford(t *testing.T) {
	if !IsClifford(workloads.BV(8, workloads.BVSecret(8))) {
		t.Fatal("BV should be Clifford")
	}
	if IsClifford(workloads.QFT(4, false)) {
		t.Fatal("QFT should not be Clifford")
	}
}

func TestRejectsNonClifford(t *testing.T) {
	tab := New(1)
	if err := tab.Apply(gate.New(gate.KindT, 0)); err == nil {
		t.Fatal("T gate accepted")
	}
}

func TestNoisyBVMatchesStatevectorTrajectories(t *testing.T) {
	// The independent-oracle test: stabilizer and state-vector trajectory
	// simulations of noisy BV must produce statistically matching outcome
	// distributions.
	c := workloads.BV(7, workloads.BVSecret(7))
	const shots = 30000
	m := noise.NewDepolarizing(0.01, 0.05)
	stab, err := RunTree(partition.Baseline(c, shots), m, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	sv := trajectory.Run(c, m, shots, trajectory.Options{Seed: 4, Parallelism: 8})
	a := metrics.FromCounts(stab.Counts, 1<<7)
	b := metrics.FromCounts(sv.Counts, 1<<7)
	if tvd := metrics.TVD(a, b); tvd > 0.025 {
		t.Fatalf("stabilizer vs statevector TVD %v", tvd)
	}
}

// opLog wraps a noise target and logs the operators handed to it.
type opLog struct {
	noise.Target
	qubits []int
	ops    []noise.Op
}

func (l *opLog) Apply(q int, op noise.Op) bool {
	l.qubits, l.ops = append(l.qubits, q), append(l.ops, op)
	return l.Target.Apply(q, op)
}

// TestTableauDrawsTheDenseStream: under DC, DCR and a depolarizing model
// that fires often, for every gate arity and 600 seeds, the tableau target
// receives the (qubit, Pauli) sequence the dense state does and leaves the
// stream where the dense draw leaves it.
func TestTableauDrawsTheDenseStream(t *testing.T) {
	for _, m := range []*noise.Model{noise.ByName("DC"), noise.ByName("DCR"), noise.NewDepolarizing(0.2, 0.4)} {
		for _, qs := range [][]int{{2}, {0, 2}, {1, 0, 2}} {
			for seed := uint64(0); seed < 600; seed++ {
				tab := &opLog{Target: (*paulis)(New(3))}
				dense := &opLog{Target: (*noise.Dense)(statevec.NewZero(3))}
				a, b := rng.New(seed), rng.New(seed)
				if m.Draw(qs, a, tab) != m.Draw(qs, b, dense) || *a != *b ||
					!reflect.DeepEqual(tab.qubits, dense.qubits) || !reflect.DeepEqual(tab.ops, dense.ops) {
					t.Fatalf("%s %v seed %d: tableau drew %v on %v, dense %v on %v", m.Name(), qs, seed, tab.ops, tab.qubits, dense.ops, dense.qubits)
				}
			}
		}
	}
}

func TestDeterministicMeasurementOfStabilizerState(t *testing.T) {
	// |0> H S S H  = X|0> = |1> is deterministic; repeat many seeds.
	for seed := uint64(0); seed < 20; seed++ {
		tab := New(2)
		tab.H(0)
		tab.S(0)
		tab.S(0)
		tab.H(0)
		tab.CX(0, 1)
		out := tab.MeasureAll(rng.New(seed))
		if out != 0b11 {
			t.Fatalf("seed %d: measured %b, want 11", seed, out)
		}
	}
}

func TestWideRegister(t *testing.T) {
	// Exercise the multi-word bit-packing path (> 64 qubits).
	tab := New(70)
	tab.X(69)
	tab.H(0)
	tab.CX(0, 65)
	r := rng.New(5)
	a := tab.Measure(0, r)
	b := tab.Measure(65, r)
	if a != b {
		t.Fatal("wide-register CX correlation broken")
	}
	if tab.Measure(69, r) != 1 {
		t.Fatal("wide-register X lost")
	}
}
