package statevec

import (
	"fmt"
	"math"
	"testing"

	"tqsim/internal/gate"
	"tqsim/internal/qmath"
	"tqsim/internal/rng"
)

// The kernel-equivalence property test: every gate kind, at randomized qubit
// positions and widths, applied through the fast-path kernels must agree
// with a naive dense matrix-vector application of the same gate matrix to
// 1e-12. This is the safety net under the strided kernel rewrites — the
// reference path below shares nothing with the kernels except the gate
// matrix itself.

const equivTol = 1e-12

// naiveApply applies the 2^k x 2^k matrix m on the given qubits to amps by
// direct dense enumeration: out[i] = sum_col m[sub(i)][col] * amps[i with
// gate bits replaced by col]. O(4^k * 2^n), independent of the kernel code.
func naiveApply(amps []complex128, qubits []int, m qmath.Matrix) []complex128 {
	out := make([]complex128, len(amps))
	k := len(qubits)
	for i := range amps {
		gi := 0
		for b, q := range qubits {
			if i>>uint(q)&1 == 1 {
				gi |= 1 << uint(b)
			}
		}
		for col := 0; col < 1<<uint(k); col++ {
			j := i
			for b, q := range qubits {
				j &^= 1 << uint(q)
				if col>>uint(b)&1 == 1 {
					j |= 1 << uint(q)
				}
			}
			out[i] += m.At(gi, col) * amps[j]
		}
	}
	return out
}

// randomQubits draws arity distinct qubit positions on n qubits.
// (randomState is shared with statevec_test.go.)
func randomQubits(n, arity int, r *rng.RNG) []int {
	return r.Perm(n)[:arity]
}

// randomGate builds a random instance of kind on n qubits.
func randomGate(kind gate.Kind, n int, r *rng.RNG) gate.Gate {
	arity := kind.Arity()
	qs := randomQubits(n, arity, r)
	if kind.NumParams() == 0 {
		return gate.New(kind, qs...)
	}
	params := make([]float64, kind.NumParams())
	for i := range params {
		params[i] = (r.Float64() - 0.5) * 6
	}
	return gate.NewParam(kind, params, qs...)
}

// allKinds is every named gate kind with a fixed arity (KindUnitary is
// exercised separately with Haar-random matrices).
var allKinds = []gate.Kind{
	gate.KindI, gate.KindX, gate.KindY, gate.KindZ, gate.KindH,
	gate.KindS, gate.KindSdg, gate.KindT, gate.KindTdg,
	gate.KindSX, gate.KindSY, gate.KindSW,
	gate.KindRX, gate.KindRY, gate.KindRZ, gate.KindP, gate.KindU3,
	gate.KindCX, gate.KindCY, gate.KindCZ, gate.KindCP,
	gate.KindCRZ, gate.KindCRX, gate.KindCRY, gate.KindCH,
	gate.KindSWAP, gate.KindCCX, gate.KindCSWAP,
}

// checkGate applies g both ways and compares amplitudes. It then lowers g
// once and runs that one kernel on st and on a second state of the same
// width: each result must be bitwise equal to State.Apply on a copy.
func checkGate(t *testing.T, st *State, g gate.Gate) {
	t.Helper()
	want := naiveApply(st.Amplitudes(), g.Qubits, g.Matrix())
	got := st.Clone()
	got.Apply(g)
	compareAmps(t, got, want, "%v on %d qubits", g, st.NumQubits())
	k := Lower(st.NumQubits(), &g)
	for _, src := range []*State{st, mirror(st)} {
		ref, run := src.Clone(), src.Clone()
		ref.Apply(g)
		run.Run(&k)
		for i := 0; i < ref.Dim(); i++ {
			a, b := run.Amplitude(uint64(i)), ref.Amplitude(uint64(i))
			if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
				t.Fatalf("%v on %d qubits: lowered kernel gives %v at %d, Apply %v", g, st.NumQubits(), a, i, b)
			}
		}
	}
}

// mirror returns a different state of st's width: st's amplitudes in
// reverse order, conjugated.
func mirror(st *State) *State {
	amps := st.Amplitudes()
	out := make([]complex128, len(amps))
	for i, a := range amps {
		out[len(amps)-1-i] = complex(real(a), -imag(a))
	}
	return FromAmplitudes(out)
}

// TestKernelEquivalence exercises every gate kind at randomized positions on
// small registers (serial kernels).
func TestKernelEquivalence(t *testing.T) {
	r := rng.New(42)
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				n := kind.Arity() + r.Intn(6)
				st := randomState(n, r)
				checkGate(t, st, randomGate(kind, n, r))
			}
		})
	}
	t.Run("unitary", func(t *testing.T) {
		for _, arity := range []int{1, 2, 3} {
			for trial := 0; trial < 4; trial++ {
				n := arity + r.Intn(4)
				u := qmath.RandomUnitary(1<<uint(arity), r)
				qs := randomQubits(n, arity, r)
				st := randomState(n, r)
				checkGate(t, st, gate.NewUnitary(u, "rand", qs...))
			}
		}
	})
}

// TestKernelEquivalenceParallel forces the worker-pool path by dropping
// ParallelThreshold to 1, covering chunked execution and the low/high qubit
// position extremes of each strided kernel.
func TestKernelEquivalenceParallel(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1
	defer func() { ParallelThreshold = old }()
	r := rng.New(7)
	const n = 10
	st := randomState(n, r)
	gates := []gate.Gate{
		gate.New(gate.KindH, 0),
		gate.New(gate.KindH, n-1),
		gate.New(gate.KindX, 0),
		gate.New(gate.KindX, n-1),
		gate.New(gate.KindZ, n/2),
		gate.NewParam(gate.KindRZ, []float64{0.9}, 0),
		gate.NewParam(gate.KindP, []float64{1.2}, n-1),
		gate.New(gate.KindCX, 0, 1),
		gate.New(gate.KindCX, n-1, 0),
		gate.New(gate.KindCX, n-1, n-2),
		gate.New(gate.KindCZ, 0, n-1),
		gate.NewParam(gate.KindCP, []float64{0.4}, 1, n-2),
		gate.NewParam(gate.KindCRX, []float64{0.7}, 0, 1),
		gate.NewParam(gate.KindCRX, []float64{0.7}, n-1, n-2),
		gate.New(gate.KindSWAP, 0, n-1),
		gate.New(gate.KindCCX, 0, n/2, n-1),
	}
	for _, g := range gates {
		checkGate(t, st, g)
	}
	// The full gate-kind grid again, now on the chunked pool path: every
	// kind that passed serially must agree when its sweep is split across
	// workers.
	for _, kind := range allKinds {
		for trial := 0; trial < 3; trial++ {
			checkGate(t, st, randomGate(kind, n, r))
		}
	}
	for _, arity := range []int{1, 2, 3} {
		u := qmath.RandomUnitary(1<<uint(arity), r)
		checkGate(t, st, gate.NewUnitary(u, "rand", randomQubits(n, arity, r)...))
	}
}

// TestKernelEquivalenceWide crosses the real ParallelThreshold so the
// chunked pool path runs at production chunk sizes.
func TestKernelEquivalenceWide(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-register equivalence skipped in -short")
	}
	r := rng.New(99)
	const n = 16
	st := randomState(n, r)
	for _, g := range []gate.Gate{
		gate.New(gate.KindH, 0),
		gate.New(gate.KindH, n-1),
		gate.New(gate.KindCX, 2, 11),
		gate.New(gate.KindCX, 15, 3),
		gate.New(gate.KindCZ, 0, 15),
		gate.NewParam(gate.KindRZ, []float64{0.31}, 9),
		gate.NewParam(gate.KindCRY, []float64{1.1}, 4, 13),
	} {
		checkGate(t, st, g)
	}
}

// TestRunAllocatesNothing pins the serial path's allocation count at zero:
// running a lowered kernel of every kind, and State.Apply of the gates with
// no matrix (X, Z, S, T, RZ, P, CX, CZ, CP, SWAP), at every width whose
// kernels stay below ParallelThreshold.
func TestRunAllocatesNothing(t *testing.T) {
	r := rng.New(73)
	for n := 1; n <= 14; n++ {
		st := randomState(n, r)
		var gates []gate.Gate
		for _, kind := range allKinds {
			if kind.Arity() <= n {
				gates = append(gates, randomGate(kind, n, r))
			}
		}
		for arity := 1; arity <= 3 && arity <= n; arity++ {
			u := qmath.RandomUnitary(1<<uint(arity), r)
			gates = append(gates, gate.NewUnitary(u, "rand", randomQubits(n, arity, r)...))
		}
		for _, g := range gates {
			k := Lower(n, &g)
			if a := testing.AllocsPerRun(20, func() { st.Run(&k) }); a != 0 {
				t.Errorf("Run(Lower(%v)) on %d qubits: %v allocations", g, n, a)
			}
			switch g.Kind {
			case gate.KindX, gate.KindZ, gate.KindS, gate.KindT, gate.KindRZ, gate.KindP,
				gate.KindCX, gate.KindCZ, gate.KindCP, gate.KindSWAP:
				if a := testing.AllocsPerRun(20, func() { st.Apply(g) }); a != 0 {
					t.Errorf("Apply(%v) on %d qubits: %v allocations", g, n, a)
				}
			}
		}
		if n >= 2 {
			if a := testing.AllocsPerRun(20, func() { st.ApplyDiag2Q(0, n-1, 1i, 1, -1, 0.5) }); a != 0 {
				t.Errorf("ApplyDiag2Q on %d qubits: %v allocations", n, a)
			}
		}
	}
}

// TestProb1Equivalence checks the strided subspace Prob1 against a naive
// full scan, serial and forced-parallel.
func TestProb1Equivalence(t *testing.T) {
	r := rng.New(5)
	for _, force := range []bool{false, true} {
		name := "serial"
		if force {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			if force {
				old := ParallelThreshold
				ParallelThreshold = 1
				defer func() { ParallelThreshold = old }()
			}
			for _, n := range []int{1, 3, 8, 12} {
				st := randomState(n, r)
				for q := 0; q < n; q++ {
					var want float64
					for i, a := range st.Amplitudes() {
						if i>>uint(q)&1 == 1 {
							want += real(a)*real(a) + imag(a)*imag(a)
						}
					}
					got := st.Prob1(q)
					if diff := got - want; diff > 1e-12 || diff < -1e-12 {
						t.Fatalf("n=%d q=%d: Prob1=%g want %g", n, q, got, want)
					}
				}
			}
		})
	}
}

// TestApplyDiag1QAndApplyX covers the exported scratch-free noise entry
// points against the generic matrix path.
func TestApplyDiag1QAndApplyX(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 6; trial++ {
		n := 1 + r.Intn(8)
		q := r.Intn(n)
		st := randomState(n, r)
		d0 := complex(r.NormFloat64(), r.NormFloat64())
		d1 := complex(r.NormFloat64(), r.NormFloat64())
		ref := st.Clone()
		ref.Apply1Q(q, qmath.FromRows([][]complex128{{d0, 0}, {0, d1}}))
		got := st.Clone()
		got.ApplyDiag1Q(q, d0, d1)
		for i := range ref.Amplitudes() {
			d := got.Amplitude(uint64(i)) - ref.Amplitude(uint64(i))
			if real(d)*real(d)+imag(d)*imag(d) > equivTol*equivTol {
				t.Fatalf("ApplyDiag1Q(%d, %v, %v) mismatch at %d", q, d0, d1, i)
			}
		}
		gotX := st.Clone()
		gotX.ApplyX(q)
		refX := st.Clone()
		refX.Apply(gate.New(gate.KindX, q))
		for i := range refX.Amplitudes() {
			if gotX.Amplitude(uint64(i)) != refX.Amplitude(uint64(i)) {
				t.Fatalf("ApplyX(%d) mismatch at %d", q, i)
			}
		}
	}
}

// TestParallelForCoversRange guards the pool's chunking: every index must be
// visited exactly once for a spread of sizes around chunk boundaries.
func TestParallelForCoversRange(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1
	defer func() { ParallelThreshold = old }()
	for _, n := range []int{1, 2, minChunk - 1, minChunk, minChunk + 1, 3*minChunk + 17, 1 << 15} {
		hits := make([]int32, n)
		parallelFor(n, func(start, end int) {
			for i := start; i < end; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestParallelSumDeterministic checks that the chunk-ordered reduction gives
// bit-identical results across repeated parallel evaluations.
func TestParallelSumDeterministic(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1
	defer func() { ParallelThreshold = old }()
	n := 1<<15 + 331
	vals := make([]float64, n)
	r := rng.New(3)
	for i := range vals {
		vals[i] = r.NormFloat64()
	}
	sum := func() float64 {
		return parallelSum(n, func(start, end int) float64 {
			var s float64
			for _, v := range vals[start:end] {
				s += v
			}
			return s
		})
	}
	want := sum()
	for trial := 0; trial < 20; trial++ {
		if got := sum(); got != want {
			t.Fatalf("trial %d: sum %v != first run %v", trial, got, want)
		}
	}
}

// TestPoolConcurrentKernels drives many goroutines through the shared pool
// at once — the shape of parallel tree execution — to shake out job
// interference (run with -race).
func TestPoolConcurrentKernels(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1
	defer func() { ParallelThreshold = old }()
	r := rng.New(17)
	const n = 8
	ref := randomState(n, r)
	g := gate.New(gate.KindH, 3)
	want := ref.Clone()
	want.Apply(g)
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		go func() {
			st := ref.Clone()
			for iter := 0; iter < 50; iter++ {
				st.Apply(g)
				st.Apply(g) // H^2 = I
			}
			st.Apply(g)
			for i := range want.Amplitudes() {
				d := st.Amplitude(uint64(i)) - want.Amplitude(uint64(i))
				if real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
					done <- fmt.Errorf("amplitude %d diverged", i)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAmplitudeRoundTrip pins the SoA boundary contract: interleaved
// amplitudes survive FromAmplitudes -> Amplitudes and SetAmplitudes ->
// Amplitudes unchanged, Amplitudes returns a snapshot (not a view), and
// Components writes through to the state's planes.
func TestAmplitudeRoundTrip(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 8; trial++ {
		n := 1 + r.Intn(10)
		amps := make([]complex128, 1<<uint(n))
		for i := range amps {
			amps[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		st := FromAmplitudes(amps)
		got := st.Amplitudes()
		for i := range amps {
			if got[i] != amps[i] {
				t.Fatalf("n=%d: FromAmplitudes round trip differs at %d: %v != %v", n, i, got[i], amps[i])
			}
		}
		// Amplitudes is a copy: clobbering it must not touch the state.
		for i := range got {
			got[i] = 0
		}
		if st.Amplitude(0) != amps[0] {
			t.Fatal("Amplitudes returned an aliasing slice")
		}
		// SetAmplitudes overwrites in place.
		for i := range amps {
			amps[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		st.SetAmplitudes(amps)
		for i, want := range amps {
			if st.Amplitude(uint64(i)) != want {
				t.Fatalf("SetAmplitudes differs at %d", i)
			}
		}
		// Components aliases the planes.
		re, im := st.Components()
		re[0], im[0] = 42, -7
		if st.Amplitude(0) != complex(42, -7) {
			t.Fatal("Components did not write through")
		}
	}
}

// TestApplyPhaseRunEquivalence drives the fused controlled-phase run against
// the obvious reference — the same gates applied one ApplyCPhase at a time —
// across every sweep shape the kernel special-cases: anchor above the support
// (the QFT row shape, lowest support qubit 0), anchor below the support,
// anchor in the middle with a nonzero support floor, unsorted and duplicated
// run qubits, table-width chunking, and the tiny-register floor where the
// table bound collapses to one gate per pass. Serial and forced-parallel.
func TestApplyPhaseRunEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		anchor int
		qubits []int
		real   bool // purely real phases exercise the realP scale path
	}{
		{name: "anchor-high-support-at-zero", n: 12, anchor: 9, qubits: []int{0, 1, 2, 3}},
		{name: "anchor-below-support", n: 12, anchor: 0, qubits: []int{5, 7, 9}},
		{name: "anchor-mid-support-floor", n: 12, anchor: 6, qubits: []int{2, 4, 9, 11}},
		{name: "singleton", n: 12, anchor: 4, qubits: []int{8}},
		{name: "unsorted", n: 12, anchor: 11, qubits: []int{7, 2, 9, 0}},
		{name: "duplicates", n: 12, anchor: 10, qubits: []int{3, 5, 3}},
		{name: "chunked", n: 10, anchor: 9, qubits: []int{0, 1, 2, 3, 4}},
		{name: "tiny-register-floor", n: 6, anchor: 5, qubits: []int{0, 1, 2}},
		{name: "real-phases", n: 12, anchor: 8, qubits: []int{1, 3, 10}, real: true},
	}
	for _, force := range []bool{false, true} {
		mode := "serial"
		if force {
			mode = "parallel"
		}
		t.Run(mode, func(t *testing.T) {
			if force {
				old := ParallelThreshold
				ParallelThreshold = 1
				defer func() { ParallelThreshold = old }()
			}
			r := rng.New(31)
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					st := randomState(tc.n, r)
					phases := make([]complex128, len(tc.qubits))
					for i := range phases {
						if tc.real {
							phases[i] = complex(r.NormFloat64(), 0)
						} else {
							phases[i] = complex(r.NormFloat64(), r.NormFloat64())
						}
					}
					ref := st.Clone()
					for j, q := range tc.qubits {
						ref.ApplyCPhase(tc.anchor, q, phases[j])
					}
					got := st.Clone()
					got.ApplyPhaseRun(tc.anchor, tc.qubits, phases)
					exact := len(tc.qubits) == 1 // doc: a run of one is bit-identical
					for i := 0; i < ref.Dim(); i++ {
						d := got.Amplitude(uint64(i)) - ref.Amplitude(uint64(i))
						if exact && d != 0 {
							t.Fatalf("singleton run not bit-identical at %d: %v vs %v",
								i, got.Amplitude(uint64(i)), ref.Amplitude(uint64(i)))
						}
						if real(d)*real(d)+imag(d)*imag(d) > equivTol*equivTol {
							t.Fatalf("amplitude %d: fused %v vs sequential %v",
								i, got.Amplitude(uint64(i)), ref.Amplitude(uint64(i)))
						}
					}
				})
			}
		})
	}
}

// TestApplyDiag2QEquivalence checks the one-pass diagonal 4x4 kernel against
// the dense Apply2Q path with the same diagonal, including unit entries that
// trigger the kernel's skip fast path.
func TestApplyDiag2QEquivalence(t *testing.T) {
	r := rng.New(37)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(8)
		qs := randomQubits(n, 2, r)
		var d [4]complex128
		for i := range d {
			if r.Intn(3) == 0 {
				d[i] = 1 // exercise the skip[sel] branch
			} else {
				d[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
		}
		st := randomState(n, r)
		ref := st.Clone()
		ref.Apply2Q(qs[0], qs[1], qmath.FromRows([][]complex128{
			{d[0], 0, 0, 0},
			{0, d[1], 0, 0},
			{0, 0, d[2], 0},
			{0, 0, 0, d[3]},
		}))
		got := st.Clone()
		got.ApplyDiag2Q(qs[0], qs[1], d[0], d[1], d[2], d[3])
		for i := 0; i < ref.Dim(); i++ {
			diff := got.Amplitude(uint64(i)) - ref.Amplitude(uint64(i))
			if real(diff)*real(diff)+imag(diff)*imag(diff) > equivTol*equivTol {
				t.Fatalf("trial %d (q0=%d q1=%d): amplitude %d: diag %v vs dense %v",
					trial, qs[0], qs[1], i, got.Amplitude(uint64(i)), ref.Amplitude(uint64(i)))
			}
		}
	}
}
