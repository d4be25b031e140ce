// Package stabilizer implements a CHP-style tableau simulator (Aaronson &
// Gottesman 2004) for Clifford circuits under Pauli noise. The paper notes
// (§4.2) that the BV benchmark is Clifford-only and therefore admits exact
// polynomial-time stabilizer simulation under Pauli channels; this package
// provides that independent oracle, which the test suite uses to cross-check
// the state-vector trajectory engine on Clifford workloads.
//
// The tableau stores 2n+1 rows of X/Z bit matrices plus sign bits: rows
// 0..n-1 are destabilizers, rows n..2n-1 stabilizers, and row 2n is
// scratch for measurement.
package stabilizer

import (
	"fmt"

	"tqsim/internal/circuit"
	"tqsim/internal/gate"
	"tqsim/internal/noise"
	"tqsim/internal/rng"
)

// Tableau is the stabilizer state of an n-qubit system.
type Tableau struct {
	n int
	// x[i][j], z[i][j] are the X/Z parts of row i for qubit j, packed in
	// uint64 words.
	x, z  [][]uint64
	r     []uint8 // phase bits (0 or 1, meaning +1 or -1)
	words int
}

// New returns the |0...0> stabilizer state.
func New(n int) *Tableau {
	if n < 1 {
		panic("stabilizer: need at least one qubit")
	}
	words := (n + 63) / 64
	t := &Tableau{n: n, words: words}
	rows := 2*n + 1
	t.x = make([][]uint64, rows)
	t.z = make([][]uint64, rows)
	t.r = make([]uint8, rows)
	for i := range t.x {
		t.x[i] = make([]uint64, words)
		t.z[i] = make([]uint64, words)
	}
	for i := 0; i < n; i++ {
		t.setX(i, i, true)   // destabilizer i = X_i
		t.setZ(n+i, i, true) // stabilizer i = Z_i
	}
	return t
}

// NumQubits returns n.
func (t *Tableau) NumQubits() int { return t.n }

// Bytes returns the approximate memory footprint of the tableau — the
// polynomial-space analogue of statevec.State.Bytes for cost accounting.
func (t *Tableau) Bytes() int64 { return TableauBytes(t.n) }

// TableauBytes returns an n-qubit tableau's footprint without allocating
// one: 2n+1 rows of x and z bit-vectors (ceil(n/64) words each) plus the
// phase column. The planner's memory estimates and the tree runner's peak
// accounting both use this, so admission control and the reported
// PeakStateBytes always agree.
func TableauBytes(n int) int64 {
	rows := int64(2*n + 1)
	words := int64((n + 63) / 64)
	return rows*words*16 + rows
}

// Clone deep-copies the tableau.
func (t *Tableau) Clone() *Tableau {
	c := New(t.n)
	c.CopyFrom(t)
	return c
}

// CopyFrom overwrites t with src without reallocating. Widths must match.
// This is the tableau analogue of statevec.State.CopyFrom: O(n^2/64) words
// instead of O(2^n) amplitudes, which is what makes tree reuse essentially
// free on the stabilizer engine.
func (t *Tableau) CopyFrom(src *Tableau) {
	if t.n != src.n {
		panic("stabilizer: CopyFrom width mismatch")
	}
	for i := range t.x {
		copy(t.x[i], src.x[i])
		copy(t.z[i], src.z[i])
	}
	copy(t.r, src.r)
}

func (t *Tableau) getX(row, q int) bool { return t.x[row][q/64]>>(uint(q)%64)&1 == 1 }
func (t *Tableau) getZ(row, q int) bool { return t.z[row][q/64]>>(uint(q)%64)&1 == 1 }

func (t *Tableau) setX(row, q int, v bool) {
	if v {
		t.x[row][q/64] |= 1 << (uint(q) % 64)
	} else {
		t.x[row][q/64] &^= 1 << (uint(q) % 64)
	}
}

func (t *Tableau) setZ(row, q int, v bool) {
	if v {
		t.z[row][q/64] |= 1 << (uint(q) % 64)
	} else {
		t.z[row][q/64] &^= 1 << (uint(q) % 64)
	}
}

// H applies a Hadamard to qubit q.
func (t *Tableau) H(q int) {
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.getX(i, q), t.getZ(i, q)
		if xi && zi {
			t.r[i] ^= 1
		}
		t.setX(i, q, zi)
		t.setZ(i, q, xi)
	}
}

// S applies the phase gate to qubit q.
func (t *Tableau) S(q int) {
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.getX(i, q), t.getZ(i, q)
		if xi && zi {
			t.r[i] ^= 1
		}
		t.setZ(i, q, zi != xi)
	}
}

// X applies Pauli-X (= HZH; flips stabilizer phases with Z on q).
func (t *Tableau) X(q int) {
	for i := 0; i < 2*t.n; i++ {
		if t.getZ(i, q) {
			t.r[i] ^= 1
		}
	}
}

// Z applies Pauli-Z.
func (t *Tableau) Z(q int) {
	for i := 0; i < 2*t.n; i++ {
		if t.getX(i, q) {
			t.r[i] ^= 1
		}
	}
}

// Y applies Pauli-Y (= iXZ; phase flips where X xor Z acts).
func (t *Tableau) Y(q int) {
	t.Z(q)
	t.X(q)
}

// CX applies a CNOT with control c and target g.
func (t *Tableau) CX(c, g int) {
	for i := 0; i < 2*t.n; i++ {
		xc, zc := t.getX(i, c), t.getZ(i, c)
		xt, zt := t.getX(i, g), t.getZ(i, g)
		if xc && zt && (xt == zc) {
			t.r[i] ^= 1
		}
		t.setX(i, g, xt != xc)
		t.setZ(i, c, zc != zt)
	}
}

// CZ applies a controlled-Z (H on target conjugating CX).
func (t *Tableau) CZ(a, b int) {
	t.H(b)
	t.CX(a, b)
	t.H(b)
}

// rowsum implements the CHP "rowsum" operation: row h *= row i, tracking
// the phase exponent mod 4.
//
// For stabilizer and scratch rows (h >= n) the summed rows always commute,
// so the resulting phase is guaranteed real (+-1) and an imaginary result
// is a corruption bug worth panicking over. Destabilizer rows (h < n) are
// different: the measurement update multiplies the measured stabilizer into
// every row carrying X on the target — including the destabilizer paired
// with an anticommuting stabilizer (e.g. Y_q times X_q = iZ_q), where an
// odd phase exponent is legitimate. Destabilizer phase bits are write-only
// in the algorithm (no observable ever reads them; the destabilizer group
// is defined up to phase), so the imaginary factor is dropped there, as in
// the reference CHP implementation.
func (t *Tableau) rowsum(h, i int) {
	// Phase exponent accumulates 2*r_h + 2*r_i + sum of g() terms.
	phase := 2*int(t.r[h]) + 2*int(t.r[i])
	for q := 0; q < t.n; q++ {
		x1, z1 := t.getX(i, q), t.getZ(i, q)
		x2, z2 := t.getX(h, q), t.getZ(h, q)
		phase += gPhase(x1, z1, x2, z2)
		t.setX(h, q, x1 != x2)
		t.setZ(h, q, z1 != z2)
	}
	phase %= 4
	if phase < 0 {
		phase += 4
	}
	if phase&1 == 1 && h >= t.n {
		panic("stabilizer: rowsum produced imaginary phase on a stabilizer row")
	}
	// For odd phases (destabilizer rows only) this drops the imaginary
	// unit and keeps the sign bit.
	t.r[h] = uint8(phase >> 1)
}

// gPhase is the CHP g function: the exponent of i contributed when the
// Pauli with bits (x1,z1) multiplies (x2,z2).
func gPhase(x1, z1, x2, z2 bool) int {
	switch {
	case !x1 && !z1:
		return 0
	case x1 && z1: // Y
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X
		if z2 && x2 {
			return 1
		}
		if z2 && !x2 {
			return -1
		}
		return 0
	default: // Z
		if x2 && !z2 {
			return 1
		}
		if x2 && z2 {
			return -1
		}
		return 0
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Measure measures qubit q in the computational basis, returning the
// outcome bit. Random outcomes draw from r.
func (t *Tableau) Measure(q int, r *rng.RNG) int {
	return t.measureWith(q, func() uint8 {
		if r.Float64() < 0.5 {
			return 1
		}
		return 0
	})
}

// measureWith measures qubit q, resolving random outcomes through choose.
// Passing a constant choose function collapses onto a fixed branch, which is
// how the dense-conversion code deterministically finds a basis state of
// nonzero amplitude.
func (t *Tableau) measureWith(q int, choose func() uint8) int {
	n := t.n
	// Case 1: some stabilizer anticommutes with Z_q (has X on q) —
	// outcome is random.
	p := -1
	for i := n; i < 2*n; i++ {
		if t.getX(i, q) {
			p = i
			break
		}
	}
	if p >= 0 {
		for i := 0; i < 2*n; i++ {
			if i != p && t.getX(i, q) {
				t.rowsum(i, p)
			}
		}
		// Destabilizer row p-n gets the old stabilizer; stabilizer p
		// becomes ±Z_q.
		copy(t.x[p-n], t.x[p])
		copy(t.z[p-n], t.z[p])
		t.r[p-n] = t.r[p]
		for w := 0; w < t.words; w++ {
			t.x[p][w] = 0
			t.z[p][w] = 0
		}
		t.setZ(p, q, true)
		out := choose()
		t.r[p] = out
		return int(out)
	}
	// Case 2: deterministic — accumulate into the scratch row.
	scratch := 2 * n
	for w := 0; w < t.words; w++ {
		t.x[scratch][w] = 0
		t.z[scratch][w] = 0
	}
	t.r[scratch] = 0
	for i := 0; i < n; i++ {
		if t.getX(i, q) {
			t.rowsum(scratch, i+n)
		}
	}
	return int(t.r[scratch])
}

// MeasureAll measures every qubit (in order) and returns the packed
// outcome.
func (t *Tableau) MeasureAll(r *rng.RNG) uint64 {
	if t.n > 64 {
		panic("stabilizer: MeasureAll supports at most 64 qubits")
	}
	var out uint64
	for q := 0; q < t.n; q++ {
		if t.Measure(q, r) == 1 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// Apply applies a Clifford gate instance. Non-Clifford kinds return an
// error.
func (t *Tableau) Apply(g gate.Gate) error {
	switch g.Kind {
	case gate.KindI:
	case gate.KindX:
		t.X(g.Qubits[0])
	case gate.KindY:
		t.Y(g.Qubits[0])
	case gate.KindZ:
		t.Z(g.Qubits[0])
	case gate.KindH:
		t.H(g.Qubits[0])
	case gate.KindS:
		t.S(g.Qubits[0])
	case gate.KindSdg:
		t.S(g.Qubits[0])
		t.Z(g.Qubits[0])
	case gate.KindCX:
		t.CX(g.Qubits[0], g.Qubits[1])
	case gate.KindCY:
		// CY = S_t CX S_t† (Y = S X S†): apply S† to the target, CX, S.
		tgt := g.Qubits[1]
		t.S(tgt)
		t.Z(tgt) // S then Z is S†
		t.CX(g.Qubits[0], tgt)
		t.S(tgt)
	case gate.KindCZ:
		t.CZ(g.Qubits[0], g.Qubits[1])
	case gate.KindSWAP:
		a, b := g.Qubits[0], g.Qubits[1]
		t.CX(a, b)
		t.CX(b, a)
		t.CX(a, b)
	default:
		return fmt.Errorf("stabilizer: %s is not a supported Clifford gate", g.Kind)
	}
	return nil
}

// paulis is a tableau as a noise.Target. Callers check PauliOnly first, so
// it receives only X, Y and Z, and no channel asks it for a marginal.
type paulis Tableau

// Apply implements noise.Target.
func (p *paulis) Apply(q int, op noise.Op) bool {
	t := (*Tableau)(p)
	switch op.Kind {
	case noise.OpX:
		t.X(q)
	case noise.OpY:
		t.Y(q)
	case noise.OpZ:
		t.Z(q)
	default:
		panic("stabilizer: a non-Pauli noise operator reached a tableau")
	}
	return true
}

// Prob1 implements noise.Target.
func (p *paulis) Prob1(int) float64 { panic("stabilizer: a damping channel reached a tableau") }

// IsCliffordKind reports whether Apply handles the gate kind. It must stay
// in lockstep with Apply's switch; TestIsCliffordKindMatchesApply enforces
// that.
func IsCliffordKind(k gate.Kind) bool {
	switch k {
	case gate.KindI, gate.KindX, gate.KindY, gate.KindZ, gate.KindH,
		gate.KindS, gate.KindSdg, gate.KindCX, gate.KindCY, gate.KindCZ,
		gate.KindSWAP:
		return true
	}
	return false
}

// IsClifford reports whether every gate of the circuit is in the supported
// Clifford set. O(gates): a kind check, no tableau evolution.
func IsClifford(c *circuit.Circuit) bool {
	for _, g := range c.Gates {
		if !IsCliffordKind(g.Kind) {
			return false
		}
	}
	return true
}
