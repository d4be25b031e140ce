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

// checkCover asserts that hits marks exactly the indices whose gate bits are
// clear, each once.
func checkCover(t *testing.T, hits []int32, qubits []int, how string) {
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
// once and nothing else — serially, through the pool, and when the group
// range is cut at boundaries that split tiles.
func TestForStreamsCoversBases(t *testing.T) {
	for _, mode := range []string{"serial", "parallel"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "parallel" {
				forceParallel(t)
			}
			for n := 1; n <= 10; n++ {
				s := NewZero(n)
				for arity := 1; arity <= 3 && arity <= n; arity++ {
					for _, qs := range qubitTuples(n, arity) {
						hits := make([]int32, s.Dim())
						s.forStreams(func(base, cnt, stride int) {
							if cnt < 1 {
								t.Errorf("qubits %v: empty progression at base %d", qs, base)
							}
							for j := 0; j < cnt; j++ {
								hits[base+j*stride]++
							}
						}, qs...)
						checkCover(t, hits, qs, mode)
					}
				}
			}
		})
	}
	t.Run("odd-chunks", func(t *testing.T) {
		for n := 1; n <= 10; n++ {
			s := NewZero(n)
			for arity := 1; arity <= 3 && arity <= n; arity++ {
				for _, qs := range qubitTuples(n, arity) {
					p := s.planStreams(qs)
					for _, step := range []int{1, 3, 7, 37} {
						hits := make([]int32, s.Dim())
						for start := 0; start < p.groups; start += step {
							p.run(start, min(start+step, p.groups), func(base, cnt, stride int) {
								for j := 0; j < cnt; j++ {
									hits[base+j*stride]++
								}
							})
						}
						checkCover(t, hits, qs, fmt.Sprintf("chunks of %d", step))
					}
				}
			}
		}
	})
}

// TestForStreamsRejectsBadQubits: out-of-range and repeated gate qubits
// panic in the enumerator, whichever kernel they arrive through.
func TestForStreamsRejectsBadQubits(t *testing.T) {
	u2 := qmath.RandomUnitary(4, rng.New(1))
	u3 := qmath.RandomUnitary(8, rng.New(2))
	bad := map[string]func(s *State){
		"forStreams high":     func(s *State) { s.forStreams(func(int, int, int) {}, 4) },
		"forStreams negative": func(s *State) { s.forStreams(func(int, int, int) {}, 0, -1) },
		"forStreams repeated": func(s *State) { s.forStreams(func(int, int, int) {}, 2, 1, 2) },
		"forStreams none":     func(s *State) { s.forStreams(func(int, int, int) {}) },
		"forStreams four":     func(s *State) { s.forStreams(func(int, int, int) {}, 0, 1, 2, 3) },
		"ApplyX":              func(s *State) { s.ApplyX(4) },
		"ApplyDiag1Q":         func(s *State) { s.ApplyDiag1Q(-1, 1i, 1) },
		"ApplyDiag1Q no-op":   func(s *State) { s.ApplyDiag1Q(4, 1, 1) },
		"ApplyCPhase same":    func(s *State) { s.ApplyCPhase(1, 1, -1) },
		"ApplyCPhase high":    func(s *State) { s.ApplyCPhase(0, 4, -1) },
		"ApplyDiag2Q same":    func(s *State) { s.ApplyDiag2Q(2, 2, 1i, 1, 1, 1) },
		"Apply2Q same":        func(s *State) { s.Apply2Q(3, 3, u2) },
		"Apply2Q high":        func(s *State) { s.Apply2Q(0, 7, u2) },
		"Apply3Q repeated":    func(s *State) { s.Apply3Q(0, 1, 0, u3) },
		"Apply CX":            func(s *State) { s.Apply(gate.New(gate.KindCX, 1, 4)) },
		"Apply SWAP":          func(s *State) { s.Apply(gate.New(gate.KindSWAP, 4, 0)) },
		"Apply Z":             func(s *State) { s.Apply(gate.New(gate.KindZ, 4)) },
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
