package statevec

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"tqsim/internal/gate"
	"tqsim/internal/qmath"
	"tqsim/internal/rng"
)

// denseGateMatrix expands a gate instance into the full 2^n x 2^n unitary by
// Kronecker products and explicit permutation — the slow reference the fast
// kernels are validated against.
func denseGateMatrix(n int, g gate.Gate) qmath.Matrix {
	dim := 1 << uint(n)
	gm := g.Matrix()
	full := qmath.NewMatrix(dim)
	k := g.Arity()
	for col := 0; col < dim; col++ {
		// Gate-space column index from the gate qubits' bits of col.
		var gcol int
		for b, q := range g.Qubits {
			if col>>uint(q)&1 == 1 {
				gcol |= 1 << uint(b)
			}
		}
		rest := col
		for _, q := range g.Qubits {
			rest &^= 1 << uint(q)
		}
		for grow := 0; grow < 1<<uint(k); grow++ {
			v := gm.At(grow, gcol)
			if v == 0 {
				continue
			}
			row := rest
			for b, q := range g.Qubits {
				if grow>>uint(b)&1 == 1 {
					row |= 1 << uint(q)
				}
			}
			full.Set(row, col, v)
		}
	}
	return full
}

// randomState returns a normalized random n-qubit state.
func randomState(n int, r *rng.RNG) *State {
	amps := make([]complex128, 1<<uint(n))
	for i := range amps {
		amps[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	s := FromAmplitudes(amps)
	s.Normalize()
	return s
}

// applyDense multiplies the dense gate matrix into a copy of the state.
func applyDense(s *State, n int, g gate.Gate) *State {
	m := denseGateMatrix(n, g)
	return FromAmplitudes(m.MulVec(s.Amplitudes()))
}

func statesClose(a, b *State, tol float64) bool {
	return qmath.VecDistance(a.Amplitudes(), b.Amplitudes()) < tol
}

func testGates(n int) []gate.Gate {
	r := rng.New(99)
	u2 := qmath.RandomUnitary(2, r)
	u4 := qmath.RandomUnitary(4, r)
	u8 := qmath.RandomUnitary(8, r)
	return []gate.Gate{
		gate.New(gate.KindX, 0),
		gate.New(gate.KindX, n-1),
		gate.New(gate.KindH, 1),
		gate.New(gate.KindZ, 2),
		gate.New(gate.KindS, 0),
		gate.New(gate.KindT, n-1),
		gate.NewParam(gate.KindRZ, []float64{0.37}, 1),
		gate.NewParam(gate.KindP, []float64{1.1}, 2),
		gate.NewParam(gate.KindU3, []float64{0.5, 0.2, -0.8}, 0),
		gate.New(gate.KindCX, 0, 1),
		gate.New(gate.KindCX, n-1, 0),
		gate.New(gate.KindCZ, 1, n-1),
		gate.NewParam(gate.KindCP, []float64{0.9}, 2, 0),
		gate.New(gate.KindSWAP, 0, n-1),
		gate.New(gate.KindCCX, 0, 1, 2),
		gate.New(gate.KindCCX, n-1, 2, 0),
		gate.NewUnitary(u2, "u2", 1),
		gate.NewUnitary(u4, "u4", n-1, 1),
		gate.NewUnitary(u8, "u8", 2, 0, n-1),
	}
}

func TestApplyAgainstDenseReference(t *testing.T) {
	const n = 5
	r := rng.New(7)
	for _, g := range testGates(n) {
		s := randomState(n, r)
		fast := s.Clone()
		fast.Apply(g)
		slow := applyDense(s, n, g)
		if !statesClose(fast, slow, 1e-9) {
			t.Errorf("gate %s disagrees with dense reference (dist %v)",
				g, qmath.VecDistance(fast.Amplitudes(), slow.Amplitudes()))
		}
	}
}

func TestApplyParallelMatchesSerial(t *testing.T) {
	// Force the parallel path by lowering the threshold, then compare to
	// the serial result at the default threshold.
	const n = 10
	r := rng.New(8)
	s := randomState(n, r)
	old := ParallelThreshold
	defer func() { ParallelThreshold = old }()

	for _, g := range testGates(n) {
		if g.Arity() == 3 && g.Kind == gate.KindUnitary {
			continue // 3q generic is documented serial
		}
		ParallelThreshold = 1 << 30
		serial := s.Clone()
		serial.Apply(g)
		ParallelThreshold = 1
		par := s.Clone()
		par.Apply(g)
		if !statesClose(serial, par, 1e-12) {
			t.Errorf("gate %s: parallel kernel diverges from serial", g)
		}
	}
}

func TestBellState(t *testing.T) {
	s := NewZero(2)
	s.Apply(gate.New(gate.KindH, 0))
	s.Apply(gate.New(gate.KindCX, 0, 1))
	want := 1 / math.Sqrt2
	if math.Abs(real(s.Amplitude(0))-want) > 1e-12 ||
		math.Abs(real(s.Amplitude(3))-want) > 1e-12 ||
		cmplx.Abs(s.Amplitude(1)) > 1e-12 || cmplx.Abs(s.Amplitude(2)) > 1e-12 {
		t.Fatalf("bell state wrong: %v", s.Amplitudes())
	}
}

func TestGHZProbabilities(t *testing.T) {
	const n = 6
	s := NewZero(n)
	s.Apply(gate.New(gate.KindH, 0))
	for q := 1; q < n; q++ {
		s.Apply(gate.New(gate.KindCX, q-1, q))
	}
	p := s.Probabilities()
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[(1<<n)-1]-0.5) > 1e-12 {
		t.Fatalf("GHZ ends: %v %v", p[0], p[(1<<n)-1])
	}
	for i := 1; i < (1<<n)-1; i++ {
		if p[i] > 1e-12 {
			t.Fatalf("GHZ middle state %d has probability %v", i, p[i])
		}
	}
}

func TestNormPreservation(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		s := randomState(4, r)
		for _, g := range testGates(4) {
			s.Apply(g)
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitaryInvertibility(t *testing.T) {
	// Applying U then U† restores the state for every gate kind.
	const n = 4
	r := rng.New(17)
	for _, g := range testGates(n) {
		s := randomState(n, r)
		orig := s.Clone()
		s.Apply(g)
		s.Apply(g.Dagger())
		// Global phases from Dagger() constructions cancel per-gate here
		// because Dagger returns the exact matrix adjoint.
		if !statesClose(s, orig, 1e-9) {
			t.Errorf("gate %s: U†U does not restore the state", g)
		}
	}
}

func TestProb1(t *testing.T) {
	s := NewZero(3)
	s.Apply(gate.New(gate.KindX, 1))
	if p := s.Prob1(1); math.Abs(p-1) > 1e-12 {
		t.Fatalf("Prob1 after X = %v", p)
	}
	if p := s.Prob1(0); p > 1e-12 {
		t.Fatalf("Prob1 of |0> qubit = %v", p)
	}
	s.Apply(gate.New(gate.KindH, 0))
	if p := s.Prob1(0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("Prob1 after H = %v", p)
	}
}

func TestSamplingDistribution(t *testing.T) {
	s := NewZero(2)
	s.Apply(gate.New(gate.KindH, 0))
	s.Apply(gate.New(gate.KindCX, 0, 1))
	r := rng.New(5)
	counts := map[uint64]int{}
	const shots = 100000
	for i := 0; i < shots; i++ {
		counts[s.Sample(r)]++
	}
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("sampled zero-probability outcome: %v", counts)
	}
	f0 := float64(counts[0]) / shots
	if math.Abs(f0-0.5) > 0.01 {
		t.Fatalf("outcome 0 frequency %v", f0)
	}
}

func TestSampleManyMatchesSample(t *testing.T) {
	const n = 4
	r := rng.New(6)
	s := randomState(n, r)
	many := s.SampleMany(50000, rng.New(1))
	counts := make([]float64, 1<<n)
	for _, m := range many {
		counts[m]++
	}
	p := s.Probabilities()
	for i := range p {
		if math.Abs(counts[i]/50000-p[i]) > 0.02 {
			t.Fatalf("SampleMany frequency mismatch at %d: %v vs %v",
				i, counts[i]/50000, p[i])
		}
	}
}

func TestInnerAndFidelity(t *testing.T) {
	a := NewZero(2)
	b := NewZero(2)
	if f := a.FidelityWith(b); math.Abs(f-1) > 1e-12 {
		t.Fatalf("identical states fidelity %v", f)
	}
	b.Apply(gate.New(gate.KindX, 0))
	if f := a.FidelityWith(b); f > 1e-12 {
		t.Fatalf("orthogonal states fidelity %v", f)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	r := rng.New(3)
	s := randomState(3, r)
	c := s.Clone()
	c.Apply(gate.New(gate.KindX, 0))
	if statesClose(s, c, 1e-12) {
		t.Fatal("clone aliases parent")
	}
	c.CopyFrom(s)
	if !statesClose(s, c, 1e-15) {
		t.Fatal("CopyFrom failed")
	}
}

func TestBasisState(t *testing.T) {
	s := NewBasis(3, 5)
	if s.Prob(5) != 1 {
		t.Fatal("basis state wrong")
	}
}

func TestNormalizePanicsOnZero(t *testing.T) {
	s := NewZero(2)
	s.ZeroAmplitudes()
	defer func() {
		if recover() == nil {
			t.Fatal("normalizing zero state did not panic")
		}
	}()
	s.Normalize()
}

func TestBytes(t *testing.T) {
	if got := NewZero(10).Bytes(); got != 16*1024 {
		t.Fatalf("Bytes = %d", got)
	}
}

func TestApplyAllMatchesSequential(t *testing.T) {
	const n = 4
	gs := testGates(n)
	r := rng.New(23)
	s1 := randomState(n, r)
	s2 := s1.Clone()
	s1.ApplyAll(gs)
	for _, g := range gs {
		s2.Apply(g)
	}
	if !statesClose(s1, s2, 1e-12) {
		t.Fatal("ApplyAll diverges from sequential Apply")
	}
}

func TestInsertZeroBits(t *testing.T) {
	// Inserting zeros at positions 1 and 3 of 0b11 gives 0b10001? Walk it:
	// i=0b11, insert at 1: 0b101; insert at 3: 0b0101 -> bits 0 and 2 set.
	got := insertZeroBits(0b11, []int{1, 3})
	if got != 0b101 {
		t.Fatalf("insertZeroBits = %b", got)
	}
}

func TestMarginal(t *testing.T) {
	// Bell pair on qubits 0,1 with qubit 2 in |1>.
	s := NewZero(3)
	s.Apply(gate.New(gate.KindH, 0))
	s.Apply(gate.New(gate.KindCX, 0, 1))
	s.Apply(gate.New(gate.KindX, 2))
	m := s.Marginal([]int{0, 1})
	if math.Abs(m[0]-0.5) > 1e-12 || math.Abs(m[3]-0.5) > 1e-12 ||
		m[1] > 1e-12 || m[2] > 1e-12 {
		t.Fatalf("bell marginal %v", m)
	}
	m2 := s.Marginal([]int{2})
	if math.Abs(m2[1]-1) > 1e-12 {
		t.Fatalf("deterministic qubit marginal %v", m2)
	}
	// Bit order follows the qubit list order.
	m3 := s.Marginal([]int{2, 0})
	if math.Abs(m3[0b01]-0.5) > 1e-12 || math.Abs(m3[0b11]-0.5) > 1e-12 {
		t.Fatalf("reordered marginal %v", m3)
	}
	var total float64
	for _, p := range m {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("marginal mass %v", total)
	}
}

func TestMarginalCounts(t *testing.T) {
	counts := map[uint64]int{0b101: 3, 0b001: 2, 0b110: 1}
	m := MarginalCounts(counts, []int{0})
	if m[1] != 5 || m[0] != 1 {
		t.Fatalf("marginal counts %v", m)
	}
	m2 := MarginalCounts(counts, []int{2, 1})
	// 0b101 -> bit2=1,bit1=0 -> 0b01; 0b001 -> 0b00; 0b110 -> bit2=1,bit1=1 -> 0b11.
	if m2[0b01] != 3 || m2[0b00] != 2 || m2[0b11] != 1 {
		t.Fatalf("two-qubit marginal counts %v", m2)
	}
}

func TestMarginalRejectsBadQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad qubit accepted")
		}
	}()
	NewZero(2).Marginal([]int{5})
}
