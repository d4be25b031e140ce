package noise

import (
	"math"
	"testing"

	"tqsim/internal/circuit"
	"tqsim/internal/gate"
	"tqsim/internal/qmath"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// krausComplete checks sum_i K_i† K_i = I.
func krausComplete(t *testing.T, name string, ks []qmath.Matrix) {
	t.Helper()
	if len(ks) == 0 {
		t.Fatalf("%s: empty Kraus set", name)
	}
	sum := qmath.NewMatrix(ks[0].N)
	for _, k := range ks {
		sum = qmath.Add(sum, qmath.Mul(k.Dagger(), k))
	}
	if d := qmath.MaxAbsDiff(sum, qmath.Identity(sum.N)); d > 1e-10 {
		t.Errorf("%s: Kraus completeness violated by %v", name, d)
	}
}

func allChannels() []Channel {
	return []Channel{
		Depolarizing1Q{P: 0.03},
		Depolarizing2Q{P: 0.05},
		AmplitudeDamping{Gamma: 0.08},
		PhaseDamping{Lambda: 0.06},
		ThermalRelaxation{T1: 25, T2: 30, GateTime: 0.5},
		PerQubit{C: AmplitudeDamping{Gamma: 0.04}},
	}
}

func TestKrausCompleteness(t *testing.T) {
	for _, ch := range allChannels() {
		krausComplete(t, ch.Name(), ch.Kraus())
	}
}

func TestChannelArities(t *testing.T) {
	for _, ch := range allChannels() {
		dim := 1 << uint(ch.Arity())
		for _, k := range ch.Kraus() {
			if k.N != dim {
				t.Errorf("%s: Kraus dim %d for arity %d", ch.Name(), k.N, ch.Arity())
			}
		}
	}
}

func TestTrajectoryPreservesNorm(t *testing.T) {
	r := rng.New(1)
	for _, ch := range allChannels() {
		s := statevec.NewZero(3)
		s.Apply(gate.New(gate.KindH, 0))
		s.Apply(gate.New(gate.KindCX, 0, 1))
		s.Apply(gate.New(gate.KindH, 2))
		qs := []int{0}
		if ch.Arity() == 2 {
			qs = []int{0, 2}
		}
		for i := 0; i < 200; i++ {
			ch.draw(qs, r, (*Dense)(s))
			if d := math.Abs(s.Norm() - 1); d > 1e-9 {
				t.Fatalf("%s: norm drifted by %v after %d applications",
					ch.Name(), d, i+1)
			}
		}
	}
}

func TestDepolarizingFiresAtRate(t *testing.T) {
	const p = 0.25
	ch := Depolarizing1Q{P: p}
	r := rng.New(2)
	fired := 0
	const n = 50000
	for i := 0; i < n; i++ {
		s := statevec.NewZero(1) // |0>
		ch.draw([]int{0}, r, (*Dense)(s))
		// X and Y move |0> to |1|; Z leaves it. Count state changes and
		// scale: 2/3 of firings are visible.
		if s.Prob(1) > 0.5 {
			fired++
		}
	}
	visible := float64(fired) / n
	want := p * 2 / 3
	if math.Abs(visible-want) > 0.01 {
		t.Fatalf("visible flip rate %v, want %v", visible, want)
	}
}

func TestAmplitudeDampingDecaysExcitedState(t *testing.T) {
	const gamma = 0.2
	ch := AmplitudeDamping{Gamma: gamma}
	r := rng.New(3)
	var p1Sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		s := statevec.NewZero(1)
		s.Apply(gate.New(gate.KindX, 0)) // |1>
		ch.draw([]int{0}, r, (*Dense)(s))
		p1Sum += s.Prob(1)
	}
	mean := p1Sum / n
	if math.Abs(mean-(1-gamma)) > 0.01 {
		t.Fatalf("mean excited population %v, want %v", mean, 1-gamma)
	}
}

func TestAmplitudeDampingFixesGroundState(t *testing.T) {
	ch := AmplitudeDamping{Gamma: 0.3}
	r := rng.New(4)
	s := statevec.NewZero(1)
	for i := 0; i < 100; i++ {
		ch.draw([]int{0}, r, (*Dense)(s))
	}
	if p := s.Prob(0); math.Abs(p-1) > 1e-12 {
		t.Fatalf("ground state not fixed: P(0)=%v", p)
	}
}

func TestPhaseDampingPreservesPopulations(t *testing.T) {
	ch := PhaseDamping{Lambda: 0.4}
	r := rng.New(5)
	var p1Sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		s := statevec.NewZero(1)
		s.Apply(gate.New(gate.KindH, 0))
		for k := 0; k < 5; k++ {
			ch.draw([]int{0}, r, (*Dense)(s))
		}
		p1Sum += s.Prob1(0)
	}
	mean := p1Sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("phase damping changed population: %v", mean)
	}
}

func TestThermalRelaxationParams(t *testing.T) {
	tr := ThermalRelaxation{T1: 25, T2: 30, GateTime: 1}
	g, l := tr.params()
	if g <= 0 || g >= 1 || l <= 0 || l >= 1 {
		t.Fatalf("implausible parameters gamma=%v lambda=%v", g, l)
	}
	wantG := 1 - math.Exp(-1.0/25)
	if math.Abs(g-wantG) > 1e-12 {
		t.Fatalf("gamma %v, want %v", g, wantG)
	}
}

func TestThermalRelaxationRejectsUnphysicalT2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("T2 > 2*T1 accepted")
		}
	}()
	ThermalRelaxation{T1: 10, T2: 25, GateTime: 1}.Kraus()
}

func TestReadoutFlip(t *testing.T) {
	ro := Readout{P01: 1, P10: 0}
	r := rng.New(6)
	if got := ro.Flip(0b000, 3, r); got != 0b111 {
		t.Fatalf("P01=1 flip gave %b", got)
	}
	ro = Readout{P01: 0, P10: 1}
	if got := ro.Flip(0b101, 3, r); got != 0b000 {
		t.Fatalf("P10=1 flip gave %b", got)
	}
	ro = Readout{}
	if got := ro.Flip(0b101, 3, r); got != 0b101 {
		t.Fatalf("zero-rate readout changed bits: %b", got)
	}
}

func TestReadoutRate(t *testing.T) {
	ro := Readout{P01: 0.1, P10: 0.1}
	r := rng.New(7)
	flips := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if ro.Flip(0, 1, r) == 1 {
			flips++
		}
	}
	if f := float64(flips) / n; math.Abs(f-0.1) > 0.005 {
		t.Fatalf("flip rate %v", f)
	}
}

func TestModelGateErrorProb(t *testing.T) {
	m := NewDepolarizing(0.001, 0.015)
	g1 := gate.New(gate.KindH, 0)
	g2 := gate.New(gate.KindCX, 0, 1)
	if p := m.GateErrorProb(g1); math.Abs(p-0.001) > 1e-12 {
		t.Fatalf("1q error prob %v", p)
	}
	if p := m.GateErrorProb(g2); math.Abs(p-0.015) > 1e-12 {
		t.Fatalf("2q error prob %v", p)
	}
	// A three-qubit gate draws the two-qubit channels on its first two
	// operands and the one-qubit channels on its third (ApplyAfterGate), so
	// Equation 4 counts both, and the dry run fires at that rate.
	dc := ByName("DC")
	ccx := gate.New(gate.KindCCX, 0, 1, 2)
	want := 1 - (1-SycamoreTwoQubitError)*(1-SycamoreOneQubitError)
	if p := dc.GateErrorProb(ccx); math.Abs(p-want) > 1e-12 {
		t.Fatalf("ccx error prob %v, want %v", p, want)
	}
	const draws = 200000
	r, fires := rng.New(9), 0
	for i := 0; i < draws; i++ {
		if fired, _ := dc.SegmentFires([]gate.Gate{ccx}, r); fired {
			fires++
		}
	}
	sigma := math.Sqrt(want * (1 - want) / draws)
	if rate := float64(fires) / draws; math.Abs(rate-want) > 4*sigma {
		t.Fatalf("ccx fires at %v over %d draws, Equation 4 says %v (4σ = %v)", rate, draws, want, 4*sigma)
	}
}

func TestSegmentErrorProbEquation4(t *testing.T) {
	m := NewDepolarizing(0.01, 0.05)
	c := circuit.New("e", 2).H(0).CX(0, 1).H(1)
	want := 1 - (1-0.01)*(1-0.05)*(1-0.01)
	if p := m.CircuitErrorProb(c); math.Abs(p-want) > 1e-12 {
		t.Fatalf("Equation 4 gives %v, want %v", p, want)
	}
}

func TestIdealModel(t *testing.T) {
	var m *Model
	if !m.Ideal() {
		t.Fatal("nil model not ideal")
	}
	if m.GateErrorProb(gate.New(gate.KindH, 0)) != 0 {
		t.Fatal("nil model has error")
	}
	s := statevec.NewZero(1)
	m.ApplyAfterGate(s, gate.New(gate.KindH, 0), rng.New(1)) // must not panic
	if m.FlipReadout(3, 2, rng.New(1)) != 3 {
		t.Fatal("nil model flipped readout")
	}
}

func TestByNameVariants(t *testing.T) {
	names := []string{"DC", "DCR", "TR", "TRR", "AD", "ADR", "PD", "PDR", "ALL"}
	for _, n := range names {
		m := ByName(n)
		if m == nil {
			t.Fatalf("ByName(%q) = nil", n)
		}
		if m.Name() != n {
			t.Fatalf("ByName(%q).Name() = %q", n, m.Name())
		}
		wantReadout := n == "ALL" || len(n) == 3 // DCR, TRR, ADR, PDR
		if (m.Readout != nil) != wantReadout {
			t.Fatalf("ByName(%q) readout presence wrong", n)
		}
	}
	if ByName("ideal") != nil || ByName("bogus") != nil {
		t.Fatal("ByName should return nil for ideal/unknown")
	}
}

func TestCombine(t *testing.T) {
	m := Combine("X", NewSycamore(), NewPhaseDamping(0.01))
	if len(m.OneQubit) != 2 || len(m.TwoQubit) != 2 {
		t.Fatalf("combine channel counts %d/%d", len(m.OneQubit), len(m.TwoQubit))
	}
}

func TestWithReadoutCopies(t *testing.T) {
	base := NewSycamore()
	withR := base.WithReadout(0.02)
	if base.Readout != nil {
		t.Fatal("WithReadout mutated the receiver")
	}
	if withR.Readout == nil || withR.ModelName != "DCR" {
		t.Fatal("WithReadout result wrong")
	}
}

func TestPerQubitErrorProb(t *testing.T) {
	p := PerQubit{C: Depolarizing1Q{P: 0.1}}
	want := 1 - 0.9*0.9
	if got := p.ErrorProb(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PerQubit error prob %v, want %v", got, want)
	}
}

func TestTrajectoryOpsAccounting(t *testing.T) {
	m := NewSycamore()
	if m.TrajectoryOps(gate.New(gate.KindH, 0)) != 1 {
		t.Fatal("1q op count")
	}
	if m.TrajectoryOps(gate.New(gate.KindCX, 0, 1)) != 1 {
		t.Fatal("2q op count")
	}
	if m.TrajectoryOps(gate.New(gate.KindCCX, 0, 1, 2)) != 2 {
		t.Fatal("3q op count: the two-qubit and the one-qubit channel")
	}
	var nilM *Model
	if nilM.TrajectoryOps(gate.New(gate.KindH, 0)) != 0 {
		t.Fatal("nil model op count")
	}
}

// TestSegmentFiresRNGIdentity pins the invariant ideal-prefix reuse rests
// on: when no channel fires over a segment, SegmentFires consumes the RNG
// stream exactly as the real trajectory channels would, so adopting the
// probe leaves a later trajectory on the identical stream. When something
// fires, SegmentFires must report it (the caller discards the probe and
// replays the segment for real, so consumption may then differ).
func TestSegmentFiresRNGIdentity(t *testing.T) {
	m := NewDepolarizing(0.05, 0.15) // rates high enough to exercise firing
	gs := []gate.Gate{
		gate.New(gate.KindH, 0),
		gate.New(gate.KindCX, 0, 1),
		gate.New(gate.KindT, 2),
		gate.New(gate.KindCX, 1, 2),
		gate.New(gate.KindX, 1),
	}
	st := statevec.NewZero(3)
	fires, noFires := 0, 0
	for seed := uint64(0); seed < 400; seed++ {
		probe := rng.New(seed)
		fired, ok := m.SegmentFires(gs, probe)
		if !ok {
			t.Fatal("depolarizing model must support the dry run")
		}
		// Real path on an independent generator at the same seed.
		real := rng.New(seed)
		realFired := false
		for _, g := range gs {
			st.CopyFrom(statevec.NewZero(3))
			if m.ApplyAfterGate(st, g, real) > 0 {
				realFired = true
				break
			}
		}
		if fired != realFired {
			t.Fatalf("seed %d: dry-run fired=%v, real path fired=%v", seed, fired, realFired)
		}
		if fired {
			fires++
			continue
		}
		noFires++
		// No-fire case: the probe and the real generator must be on the
		// identical stream position.
		if probe.Uint64() != real.Uint64() {
			t.Fatalf("seed %d: RNG consumption diverged on a no-fire segment", seed)
		}
	}
	if fires == 0 || noFires == 0 {
		t.Fatalf("degenerate sample: %d fires, %d no-fires", fires, noFires)
	}

	// Span by span (the executor's first-fire start): a dry run that stops at
	// every cut of a list stands, at each cut it passes, on the stream the
	// real channel path and the whole-prefix dry run stand on there, and
	// reports the fire in the span that holds the real path's first firing
	// gate — whether that is the first gate of a span, the last gate of the
	// segment or anything between.
	spanStart, segmentEnd := 0, 0
	for _, cuts := range [][]int{{1, 2, 3, 4, 5}, {2, 5}, {3, 4, 5}, {5}} {
		for seed := uint64(0); seed < 400; seed++ {
			// Real path: the stream after each gate, up to the first fire.
			real := rng.New(seed)
			after := []rng.RNG{*real} // after[k]: k gates applied, none fired
			firstFire := len(gs)
			for k, g := range gs {
				st.CopyFrom(statevec.NewZero(3))
				if m.ApplyAfterGate(st, g, real) > 0 {
					firstFire = k
					break
				}
				after = append(after, *real)
			}
			probe, from, firedIn, firedTo := rng.New(seed), 0, -1, 0
			for _, cut := range cuts {
				if fired, _ := m.SegmentFires(gs[from:cut], probe); fired {
					firedIn, firedTo = from, cut
					break
				}
				whole := rng.New(seed)
				if fired, _ := m.SegmentFires(gs[:cut], whole); fired || *whole != *probe || *probe != after[cut] {
					t.Fatalf("seed %d cuts %v: at cut %d the span-wise stream differs from the whole-prefix dry run's or the real path's", seed, cuts, cut)
				}
				from = cut
			}
			switch {
			case firstFire == len(gs) && firedIn >= 0:
				t.Fatalf("seed %d cuts %v: span-wise dry run fired, the real path did not", seed, cuts)
			case firstFire < len(gs) && (firedIn < 0 || firstFire < firedIn || firstFire >= firedTo):
				t.Fatalf("seed %d cuts %v: real path fires at gate %d, span-wise dry run in span [%d,%d)", seed, cuts, firstFire, firedIn, firedTo)
			case firstFire == firedIn:
				spanStart++
			}
			if firstFire == len(gs)-1 {
				segmentEnd++
			}
		}
	}
	if spanStart == 0 || segmentEnd == 0 {
		t.Fatalf("degenerate sample: %d fires on the first gate of a span, %d on the last gate of the segment", spanStart, segmentEnd)
	}

	// Non-Pauli models must decline without consuming randomness.
	ad := NewAmplitudeDamping(0.1)
	r := rng.New(7)
	before := *r
	if _, ok := ad.SegmentFires(gs, r); ok {
		t.Fatal("amplitude damping cannot support a state-independent dry run")
	}
	if *r != before {
		t.Fatal("declined dry run consumed randomness")
	}

	// Nil model: never fires, consumes nothing.
	var nilM *Model
	r2 := rng.New(9)
	before2 := *r2
	if fired, ok := nilM.SegmentFires(gs, r2); !ok || fired {
		t.Fatal("nil model dry run")
	}
	if *r2 != before2 {
		t.Fatal("nil model consumed randomness")
	}
}
