package statevec

import (
	"fmt"
	"testing"

	"tqsim/internal/gate"
	"tqsim/internal/qmath"
	"tqsim/internal/rng"
)

// qubitTuples returns every ordered tuple of arity distinct qubits on n.
func qubitTuples(n, arity int) [][]int {
	var out [][]int
	var walk func(prefix []int)
	walk = func(prefix []int) {
		if len(prefix) == arity {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for q := 0; q < n; q++ {
			used := false
			for _, p := range prefix {
				used = used || p == q
			}
			if !used {
				walk(append(prefix, q))
			}
		}
	}
	walk(nil)
	return out
}

// forceParallel drops ParallelThreshold to 1 for the rest of the test.
func forceParallel(t *testing.T) {
	old := ParallelThreshold
	ParallelThreshold = 1
	t.Cleanup(func() { ParallelThreshold = old })
}

// coverKernel lowers diag(2, 1, ..., 1) on qubits for an n-qubit register:
// it doubles the amplitude at each base (the gate bits clear) and leaves
// every other amplitude as it is, exactly, through the same mixing primitive
// as any dense gate of that arity. On a state of ones, a base visited twice
// reads 4 and one never visited reads 1.
func coverKernel(n int, qubits []int) Kernel {
	u := qmath.Identity(1 << uint(len(qubits)))
	u.Data[0] = 2
	return Lower(n, &gate.Gate{Kind: gate.KindUnitary, Qubits: qubits, U: &u})
}

// ones returns the n-qubit all-ones vector.
func ones(n int) *State {
	s := alloc(n)
	for i := range s.re {
		s.re[i] = 1
	}
	return s
}

// checkDoubled asserts that the amplitudes of st, a state of ones that a
// cover kernel ran on, are 2 exactly at the indices whose gate bits are
// clear and 1 everywhere else.
func checkDoubled(t *testing.T, st *State, qubits []int, how string) {
	t.Helper()
	mask := 0
	for _, q := range qubits {
		mask |= 1 << uint(q)
	}
	for i := 0; i < st.Dim(); i++ {
		want := complex(1, 0)
		if i&mask == 0 {
			want = 2
		}
		if got := st.Amplitude(uint64(i)); got != want {
			t.Fatalf("%s, qubits %v on %d amplitudes: index %d reads %v, want %v",
				how, qubits, st.Dim(), i, got, want)
		}
	}
}

// walkHits counts in hits every index that k's progressions over groups
// [start, end) visit, and fails on an empty progression.
func walkHits(t *testing.T, hits []int32, k *Kernel, start, end int, how string) {
	t.Helper()
	k.plan.walk(start, end, func(base, cnt, stride int) {
		if cnt < 1 {
			t.Fatalf("%s, qubits %v: empty progression at base %d", how, k.plan.pos[:k.plan.k], base)
		}
		for j := 0; j < cnt; j++ {
			hits[base+j*stride]++
		}
	})
}

// checkHits asserts that hits marks exactly the indices whose gate bits are
// clear, each once.
func checkHits(t *testing.T, hits []int32, qubits []int, how string) {
	t.Helper()
	mask := 0
	for _, q := range qubits {
		mask |= 1 << uint(q)
	}
	for i, h := range hits {
		want := int32(0)
		if i&mask == 0 {
			want = 1
		}
		if h != want {
			t.Fatalf("%s, qubits %v on %d amplitudes: index %d visited %d times, want %d",
				how, qubits, len(hits), i, h, want)
		}
	}
}

// TestForStreamsCoversBases is the enumerator's contract: for every width
// 1..10 and every ordered choice of 1..3 distinct qubits, the (base, n,
// stride) progressions visit each index with the gate bits clear exactly
// once and nothing else, and none is empty — over the whole group range,
// over the pool's chunks, and when the range is cut at boundaries that split
// tiles. A kernel run serially and through the pool covers the same bases.
func TestForStreamsCoversBases(t *testing.T) {
	for _, mode := range []string{"serial", "parallel"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "parallel" {
				forceParallel(t)
			}
			for n := 1; n <= 10; n++ {
				for arity := 1; arity <= 3 && arity <= n; arity++ {
					for _, qs := range qubitTuples(n, arity) {
						k := coverKernel(n, qs)
						groups := k.plan.groups
						chunk, chunks := groups, 1
						if mode == "parallel" {
							chunk, chunks = getPool().split(groups)
						}
						hits := make([]int32, 1<<uint(n))
						for c := range chunks {
							walkHits(t, hits, &k, c*chunk, min((c+1)*chunk, groups), mode)
						}
						checkHits(t, hits, qs, mode)
						st := ones(n)
						st.Run(&k)
						checkDoubled(t, st, qs, mode)
					}
				}
			}
		})
	}
	t.Run("odd-chunks", func(t *testing.T) {
		for n := 1; n <= 10; n++ {
			for arity := 1; arity <= 3 && arity <= n; arity++ {
				for _, qs := range qubitTuples(n, arity) {
					k := coverKernel(n, qs)
					for _, step := range []int{1, 3, 7, 37} {
						how := fmt.Sprintf("chunks of %d", step)
						hits := make([]int32, 1<<uint(n))
						for start := 0; start < k.plan.groups; start += step {
							walkHits(t, hits, &k, start, min(start+step, k.plan.groups), how)
						}
						checkHits(t, hits, qs, how)
					}
				}
			}
		}
	})
}

// TestForStreamsRejectsBadQubits: out-of-range and repeated gate qubits,
// and arities outside 1..3, panic where the kernel is lowered, whichever
// entry point they arrive through; so does a kernel run on a state of
// another width. The gates are built as literals because gate.New would
// reject most of them first.
func TestForStreamsRejectsBadQubits(t *testing.T) {
	u1 := qmath.Identity(1)
	u2 := qmath.RandomUnitary(4, rng.New(1))
	u3 := qmath.RandomUnitary(8, rng.New(2))
	u4 := qmath.Identity(16)
	lower := func(g gate.Gate) func(*State) {
		return func(s *State) { Lower(s.NumQubits(), &g) }
	}
	bad := map[string]func(s *State){
		"forStreams high":     lower(gate.Gate{Kind: gate.KindH, Qubits: []int{4}}),
		"forStreams negative": lower(gate.Gate{Kind: gate.KindCX, Qubits: []int{0, -1}}),
		"forStreams repeated": lower(gate.Gate{Kind: gate.KindCCX, Qubits: []int{2, 1, 2}}),
		"forStreams none":     lower(gate.Gate{Kind: gate.KindUnitary, U: &u1}),
		"forStreams four":     lower(gate.Gate{Kind: gate.KindUnitary, Qubits: []int{0, 1, 2, 3}, U: &u4}),
		"ApplyX":              func(s *State) { s.ApplyX(4) },
		"ApplyDiag1Q":         func(s *State) { s.ApplyDiag1Q(-1, 1i, 1) },
		"ApplyDiag1Q no-op":   func(s *State) { s.ApplyDiag1Q(4, 1, 1) },
		"ApplyCPhase same":    func(s *State) { s.ApplyCPhase(1, 1, -1) },
		"ApplyCPhase high":    func(s *State) { s.ApplyCPhase(0, 4, -1) },
		"ApplyDiag2Q same":    func(s *State) { s.ApplyDiag2Q(2, 2, 1i, 1, 1, 1) },
		"ApplyDiag2Q ones":    func(s *State) { s.ApplyDiag2Q(0, 4, 1, 1, 1, 1) },
		"Apply2Q same":        func(s *State) { s.Apply2Q(3, 3, u2) },
		"Apply2Q high":        func(s *State) { s.Apply2Q(0, 7, u2) },
		"Apply3Q repeated":    func(s *State) { s.Apply3Q(0, 1, 0, u3) },
		"Apply CX":            func(s *State) { s.Apply(gate.New(gate.KindCX, 1, 4)) },
		"Apply SWAP":          func(s *State) { s.Apply(gate.New(gate.KindSWAP, 4, 0)) },
		"Apply Z":             func(s *State) { s.Apply(gate.New(gate.KindZ, 4)) },
		"Apply I":             func(s *State) { s.Apply(gate.New(gate.KindI, 4)) },
		"Run narrower":        func(s *State) { k := Lower(3, &gate.Gate{Kind: gate.KindX, Qubits: []int{0}}); s.Run(&k) },
		"Run wider":           func(s *State) { k := Lower(5, &gate.Gate{Kind: gate.KindH, Qubits: []int{0}}); s.Run(&k) },
		"Run identity wider":  func(s *State) { k := Lower(5, &gate.Gate{Kind: gate.KindI, Qubits: []int{0}}); s.Run(&k) },
		"Run zero":            func(s *State) { s.Run(&Kernel{}) },
	}
	for name, f := range bad {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("bad qubits accepted")
				}
			}()
			f(NewZero(4))
		})
	}
}

// TestKernelEquivalenceExhaustive makes the position grid exhaustive where
// TestKernelEquivalence samples it: every gate kind, plus a Haar-random
// unitary of each arity and the exported diagonal entry points, at every
// ordered qubit tuple, against naiveApply. Width 7 is below the span of one
// strided block and width 12 above it, so contiguous runs, single-block and
// multi-block strided progressions and every mid-register partner are hit.
func TestKernelEquivalenceExhaustive(t *testing.T) {
	widths := []int{7, 12}
	if testing.Short() {
		widths = widths[:1]
	}
	for _, mode := range []string{"serial", "parallel"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "parallel" {
				forceParallel(t)
			}
			r := rng.New(61)
			for _, n := range widths {
				st := randomState(n, r)
				for _, kind := range allKinds {
					params := make([]float64, kind.NumParams())
					for i := range params {
						params[i] = (r.Float64() - 0.5) * 6
					}
					for _, qs := range qubitTuples(n, kind.Arity()) {
						checkGate(t, st, gate.NewParam(kind, params, qs...))
					}
				}
				for arity := 1; arity <= 3; arity++ {
					u := qmath.RandomUnitary(1<<uint(arity), r)
					for _, qs := range qubitTuples(n, arity) {
						checkGate(t, st, gate.NewUnitary(u, "rand", qs...))
					}
				}
				d := [4]complex128{complex(0.3, -1.1), 1, complex(-0.7, 0), complex(0.2, 0.9)}
				for q := 0; q < n; q++ {
					for _, pair := range [][2]complex128{{d[0], d[3]}, {1, d[3]}, {d[2], 1}, {1, d[2]}} {
						got := st.Clone()
						got.ApplyDiag1Q(q, pair[0], pair[1])
						diag := qmath.FromRows([][]complex128{{pair[0], 0}, {0, pair[1]}})
						compareAmps(t, got, naiveApply(st.Amplitudes(), []int{q}, diag),
							"ApplyDiag1Q(%d, %v, %v) on %d qubits", q, pair[0], pair[1], n)
					}
				}
				for _, qs := range qubitTuples(n, 2) {
					got := st.Clone()
					got.ApplyDiag2Q(qs[0], qs[1], d[0], d[1], d[2], d[3])
					diag := qmath.FromRows([][]complex128{
						{d[0], 0, 0, 0}, {0, d[1], 0, 0}, {0, 0, d[2], 0}, {0, 0, 0, d[3]}})
					compareAmps(t, got, naiveApply(st.Amplitudes(), qs, diag),
						"ApplyDiag2Q%v on %d qubits", qs, n)
				}
			}
		})
	}
}

// compareAmps fails unless got matches want to equivTol; format and args
// name the case and are only rendered on failure.
func compareAmps(t *testing.T, got *State, want []complex128, format string, args ...any) {
	t.Helper()
	for i, w := range want {
		d := got.Amplitude(uint64(i)) - w
		if real(d)*real(d)+imag(d)*imag(d) > equivTol*equivTol {
			t.Fatalf("%s: amplitude %d: got %v want %v", fmt.Sprintf(format, args...), i, got.Amplitude(uint64(i)), w)
		}
	}
}
