package workloads

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"tqsim/internal/circuit"
	"tqsim/internal/gate"
	"tqsim/internal/graphs"
	"tqsim/internal/statevec"
)

func newTestCircuit(n int) *circuit.Circuit { return circuit.New("test", n) }

func TestAdderComputesSums(t *testing.T) {
	check := func(a8, b8 uint8) bool {
		nBits := 3
		a := uint64(a8) & 7
		b := uint64(b8) & 7
		c := Adder(nBits, a, b, -1)
		st := statevec.NewZero(c.Width())
		st.ApplyAll(c.Gates)
		want := AdderSum(nBits, a, b)
		return math.Abs(st.Prob(want)-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAdderWidths(t *testing.T) {
	if w := Adder(1, 0, 1, 0).Width(); w != 4 {
		t.Fatalf("1-bit adder width %d, want 4", w)
	}
	if w := Adder(4, 5, 9, 0).Width(); w != 10 {
		t.Fatalf("4-bit adder width %d, want 10", w)
	}
}

func TestBVRecoversSecret(t *testing.T) {
	for _, width := range []int{4, 6, 8, 10} {
		secret := BVSecret(width)
		c := BV(width, secret)
		st := statevec.NewZero(width)
		st.ApplyAll(c.Gates)
		// The data qubits must read the secret with certainty; the ancilla
		// (in |->) measures uniformly, so both its outcomes are valid.
		dataMask := uint64(1)<<uint(width-1) - 1
		p := st.Probabilities()
		var pSecret float64
		for x, px := range p {
			if uint64(x)&dataMask == secret {
				pSecret += px
			}
		}
		if math.Abs(pSecret-1) > 1e-9 {
			t.Fatalf("width %d: P(secret)=%v", width, pSecret)
		}
	}
}

func TestBVGateCountLinear(t *testing.T) {
	c6 := BV(6, BVSecret(6))
	c16 := BV(16, BVSecret(16))
	if c16.Len()-c6.Len() > 40 {
		t.Fatalf("BV gate growth not linear: %d -> %d", c6.Len(), c16.Len())
	}
	// Paper's Table 2 band: 16-46 gates across widths 6-16.
	if c6.Len() < 12 || c6.Len() > 22 || c16.Len() < 36 || c16.Len() > 52 {
		t.Fatalf("BV counts (%d,%d) outside the Table 2 band", c6.Len(), c16.Len())
	}
}

func TestMulComputesProducts(t *testing.T) {
	cases := [][2]uint64{{0, 0}, {1, 1}, {3, 5}, {7, 7}, {2, 6}}
	for _, io := range cases {
		c := Mul(3, 3, io[0], io[1], false, -1)
		st := statevec.NewZero(c.Width())
		st.ApplyAll(c.Gates)
		want := MulExpected(3, 3, io[0], io[1])
		if p := st.Prob(want); math.Abs(p-1) > 1e-6 {
			// Find the actual peak for diagnostics.
			probs := st.Probabilities()
			best, bp := 0, 0.0
			for i, q := range probs {
				if q > bp {
					best, bp = i, q
				}
			}
			t.Fatalf("mul(%d,%d): P(want=%b)=%v, peak at %b with %v",
				io[0], io[1], want, p, best, bp)
		}
	}
}

func TestMulDecomposedMatchesNative(t *testing.T) {
	a := Mul(2, 2, 3, 2, false, -1)
	b := Mul(2, 2, 3, 2, true, -1)
	sa := statevec.NewZero(a.Width())
	sa.ApplyAll(a.Gates)
	sb := statevec.NewZero(b.Width())
	sb.ApplyAll(b.Gates)
	want := MulExpected(2, 2, 3, 2)
	if math.Abs(sa.Prob(want)-1) > 1e-6 || math.Abs(sb.Prob(want)-1) > 1e-6 {
		t.Fatalf("native %v decomposed %v", sa.Prob(want), sb.Prob(want))
	}
	if b.Len() <= a.Len() {
		t.Fatal("decomposition did not increase gate count")
	}
}

func TestMulWidths(t *testing.T) {
	if w := Mul(3, 3, 1, 1, false, -1).Width(); w != 13 {
		t.Fatalf("mul(3,3) width %d, want 13", w)
	}
	if w := Mul(3, 4, 1, 1, false, -1).Width(); w != 15 {
		t.Fatalf("mul(3,4) width %d, want 15", w)
	}
}

func TestQFTOfGHZHasCosineSpectrum(t *testing.T) {
	// QFT of (|0...0> + |1...1>)/sqrt(2): the |1...1> branch contributes
	// phases e^{-2 pi i y / 2^n} relative to the flat |0...0> branch, so
	// P(y) = cos^2(pi y / 2^n) / 2^(n-1) after the terminal bit-reversal
	// swaps. Check against the analytic form at the measured ordering.
	const n = 5
	c := QFT(n, false)
	st := statevec.NewZero(n)
	st.ApplyAll(c.Gates)
	p := st.Probabilities()
	var sum float64
	maxP, minP := 0.0, 1.0
	for _, q := range p {
		sum += q
		if q > maxP {
			maxP = q
		}
		if q < minP {
			minP = q
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Structured, not uniform: peak at 2/2^n, troughs at ~0.
	if math.Abs(maxP-2.0/(1<<n)) > 1e-9 {
		t.Fatalf("peak probability %v, want %v", maxP, 2.0/(1<<n))
	}
	if minP > 1e-9 {
		t.Fatalf("spectrum has no zeros: min %v", minP)
	}
}

func TestQFTDecomposedMatchesNative(t *testing.T) {
	a := QFT(5, false)
	b := QFT(5, true)
	sa := statevec.NewZero(5)
	sa.ApplyAll(a.Gates)
	sb := statevec.NewZero(5)
	sb.ApplyAll(b.Gates)
	// Distributions must agree (global phases may differ).
	pa, pb := sa.Probabilities(), sb.Probabilities()
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-9 {
			t.Fatalf("decomposed QFT diverges at %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	if b.Len() <= a.Len() {
		t.Fatal("decomposition did not increase gate count")
	}
}

func TestQFTInverseIsIdentity(t *testing.T) {
	c := QFT(4, false)
	inv := c.Inverse()
	st := statevec.NewZero(4)
	st.ApplyAll(c.Gates)
	st.ApplyAll(inv.Gates)
	// Input preparation (X on even qubits) is part of the circuit, so the
	// round trip returns to |0...0>... it returns to the prepared state
	// reversed through prep: full inverse undoes everything -> |0>.
	if p := st.Prob(0); math.Abs(p-1) > 1e-9 {
		t.Fatalf("QFT then inverse leaves P(0)=%v", p)
	}
}

func TestQPEEstimatesPhase(t *testing.T) {
	const counting = 6
	c := QPE(counting, QPEPhase, false, -1)
	st := statevec.NewZero(c.Width())
	st.ApplyAll(c.Gates)
	// The counting register peaks at round(phase * 2^t).
	wantIdx := uint64(math.Round(QPEPhase * math.Pow(2, counting)))
	probs := st.Probabilities()
	var best uint64
	bp := 0.0
	countMask := uint64(1)<<counting - 1
	marginal := map[uint64]float64{}
	for x, p := range probs {
		marginal[uint64(x)&countMask] += p
	}
	for x, p := range marginal {
		if p > bp {
			best, bp = x, p
		}
	}
	if best != wantIdx {
		t.Fatalf("QPE peak at %d, want %d (P=%v)", best, wantIdx, bp)
	}
	if bp < 0.4 {
		t.Fatalf("QPE peak too flat: %v", bp)
	}
}

func TestQPEVariantsAgree(t *testing.T) {
	a := QPE(5, QPEPhase, false, 0)
	b := QPE(5, QPEPhase, true, 1)
	sa := statevec.NewZero(a.Width())
	sa.ApplyAll(a.Gates)
	sb := statevec.NewZero(b.Width())
	sb.ApplyAll(b.Gates)
	pa, pb := sa.Probabilities(), sb.Probabilities()
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-9 {
			t.Fatalf("QPE variants diverge at %d", i)
		}
	}
}

func TestQAOAStructure(t *testing.T) {
	g := graphs.Random(6, 0.5, 7)
	layers := defaultQAOALayers()
	c := QAOA(g, layers)
	if c.Width() != 6 {
		t.Fatalf("width %d", c.Width())
	}
	wantLen := 6 + len(layers)*(3*g.NumEdges()+6)
	if c.Len() != wantLen {
		t.Fatalf("gate count %d, want %d", c.Len(), wantLen)
	}
}

func TestQAOAZeroAnglesGiveUniform(t *testing.T) {
	g := graphs.Ring(5)
	c := QAOA(g, []QAOAParams{{Gamma: 0, Beta: 0}})
	st := statevec.NewZero(5)
	st.ApplyAll(c.Gates)
	for i, p := range st.Probabilities() {
		if math.Abs(p-1.0/32) > 1e-9 {
			t.Fatalf("outcome %d probability %v", i, p)
		}
	}
}

func TestQAOAExpectedCut(t *testing.T) {
	g := graphs.Ring(4)
	// Perfect alternating cut 0101 cuts all 4 edges.
	probs := make([]float64, 16)
	probs[0b0101] = 1
	if e := QAOAExpectedCut(g, probs); e != 4 {
		t.Fatalf("expected cut %v", e)
	}
	counts := map[uint64]int{0b0101: 1, 0b0000: 1}
	if e := QAOAExpectedCutCounts(g, counts); e != 2 {
		t.Fatalf("expected cut from counts %v", e)
	}
	if e := QAOAExpectedCutCounts(g, nil); e != 0 {
		t.Fatalf("empty counts %v", e)
	}
}

func TestQSCProperties(t *testing.T) {
	c := QSC(8, QSCDepthFor(8), 1)
	if c.Width() != 8 {
		t.Fatalf("width %d", c.Width())
	}
	// Deterministic by seed.
	c2 := QSC(8, QSCDepthFor(8), 1)
	if c.Len() != c2.Len() {
		t.Fatal("QSC not deterministic")
	}
	for i := range c.Gates {
		if c.Gates[i].Kind != c2.Gates[i].Kind {
			t.Fatal("QSC gate streams differ across identical seeds")
		}
	}
	// No repeated 1q gate on the same qubit in consecutive cycles.
	var lastKind [8]gate.Kind
	for q := range lastKind {
		lastKind[q] = gate.KindI
	}
	for _, g := range c.Gates {
		if g.Arity() == 1 {
			q := g.Qubits[0]
			if g.Kind == lastKind[q] {
				t.Fatal("QSC repeated a 1q gate on consecutive cycles")
			}
			lastKind[q] = g.Kind
		}
	}
}

func TestQVGateCount(t *testing.T) {
	// Decomposed QV at depth 6: 33 gates per qubit (Table 2's 330..660).
	for _, w := range []int{10, 12} {
		c := QV(w, QVDefaultDepth, false, 1)
		if c.Len() != 33*w {
			t.Fatalf("QV width %d has %d gates, want %d", w, c.Len(), 33*w)
		}
	}
}

func TestQVHaarVariant(t *testing.T) {
	c := QV(4, 2, true, 3)
	st := statevec.NewZero(4)
	st.ApplyAll(c.Gates)
	if d := math.Abs(st.Norm() - 1); d > 1e-9 {
		t.Fatalf("QV haar circuit broke normalization by %v", d)
	}
	for _, g := range c.Gates {
		if g.Kind != gate.KindUnitary {
			t.Fatal("haar QV should contain only unitary blocks")
		}
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite(0)
	if len(suite) != 48 {
		t.Fatalf("suite has %d circuits, want 48", len(suite))
	}
	perClass := map[string]int{}
	for _, b := range suite {
		perClass[b.Class]++
	}
	for _, class := range Classes {
		if perClass[class] != 6 {
			t.Fatalf("class %s has %d instances, want 6", class, perClass[class])
		}
	}
}

func TestSuiteFilter(t *testing.T) {
	small := Suite(13)
	if len(small) >= 48 || len(small) == 0 {
		t.Fatalf("filtered suite has %d circuits", len(small))
	}
	for _, b := range small {
		if b.Circuit.NumQubits > 13 {
			t.Fatalf("filter leaked %s", b.Circuit.Name)
		}
	}
}

func TestSuiteWidthBands(t *testing.T) {
	rows := Characteristics(Suite(0))
	if len(rows) != 8 {
		t.Fatalf("%d classes", len(rows))
	}
	band := map[string][2]int{ // paper's Table 2 width ranges
		"adder": {4, 10}, "bv": {6, 16}, "mul": {13, 25}, "qaoa": {6, 15},
		"qft": {8, 18}, "qpe": {4, 16}, "qsc": {8, 16}, "qv": {10, 20},
	}
	for _, r := range rows {
		want := band[r.Class]
		if r.WidthMin != want[0] || r.WidthMax != want[1] {
			t.Errorf("%s widths %d-%d, want %d-%d",
				r.Class, r.WidthMin, r.WidthMax, want[0], want[1])
		}
	}
	if FormatCharacteristics(rows) == "" {
		t.Fatal("empty characteristics table")
	}
}

func TestByName(t *testing.T) {
	c := ByName("bv_n6")
	if c == nil || c.NumQubits != 6 {
		t.Fatal("ByName failed for bv_n6")
	}
	if ByName("nope_n3") != nil {
		t.Fatal("unknown name resolved")
	}
	// The index is warm now: an unknown name is a map miss, nothing built.
	if n := testing.AllocsPerRun(100, func() { ByName("nope_n3") }); n != 0 {
		t.Fatalf("unknown name allocates %v times per call, want 0", n)
	}
}

// TestByNameMatchesSuite: every suite circuit resolves by its name to the
// same gates and class, and the 48 names the index is keyed by are distinct.
func TestByNameMatchesSuite(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Suite(0) {
		name := b.Circuit.Name
		if seen[name] {
			t.Fatalf("suite name %s appears twice", name)
		}
		seen[name] = true
		c := ByName(name)
		if c == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if c.Name != name || c.Digest() != b.Circuit.Digest() {
			t.Errorf("ByName(%q) builds %s, not the suite circuit", name, c.Name)
		}
		if ClassOf(name) != b.Class {
			t.Errorf("ClassOf(%q) = %q, suite class %q", name, ClassOf(name), b.Class)
		}
	}
	if len(seen) != 48 {
		t.Fatalf("%d distinct names, want 48", len(seen))
	}
}

// TestByNameOwnedCopy: a returned circuit is the caller's; changing it does
// not change what the next call returns.
func TestByNameOwnedCopy(t *testing.T) {
	first := ByName("qft_n8")
	n, digest := first.Len(), first.Digest()
	first.Append(gate.New(gate.KindX, 0))
	again := ByName("qft_n8")
	if again.Len() != n || again.Digest() != digest {
		t.Fatalf("ByName after Append: %d gates, want %d; digest changed: %v",
			again.Len(), n, again.Digest() != digest)
	}
}

// TestByNameConcurrent: concurrent first calls share one index build and
// all resolve (make race runs this).
func TestByNameConcurrent(t *testing.T) {
	byName = sync.OnceValue(indexSuite) // cold index
	names := []string{"bv_n6", "qft_n10", "qpe_n9_1", "adder_n4_2", "qv_n10", "qsc_n8", "qaoa_n6", "mul_n13"}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c := ByName(name); c == nil || c.Name != name {
				t.Errorf("concurrent ByName(%q) did not resolve", name)
			}
		}()
	}
	wg.Wait()
}

func TestClassOf(t *testing.T) {
	if ClassOf("qft_n14") != "qft" || ClassOf("adder_n4_1") != "adder" {
		t.Fatal("ClassOf parsing wrong")
	}
}

func TestToffoliDecompositionCorrect(t *testing.T) {
	// The 15-gate network must equal CCX on all 8 basis states.
	for basis := uint64(0); basis < 8; basis++ {
		direct := statevec.NewBasis(3, basis)
		direct.Apply(gate.New(gate.KindCCX, 0, 1, 2))
		dec := statevec.NewBasis(3, basis)
		c := newTestCircuit(3)
		toffoli(c, 0, 1, 2)
		dec.ApplyAll(c.Gates)
		f := direct.FidelityWith(dec)
		if math.Abs(f-1) > 1e-9 {
			t.Fatalf("toffoli decomposition wrong on basis %b (fidelity %v)", basis, f)
		}
	}
}
