// Package noise implements the error channels the paper evaluates —
// depolarizing (DC), thermal relaxation (TR), amplitude damping (AD), phase
// damping (PD) and readout (R) — in the two forms a trajectory simulator
// needs:
//
//   - Kraus operators, consumed by the density-matrix reference simulator
//     (internal/densmat), and
//   - stochastic trajectory draws, consumed by every Monte Carlo engine.
//     Pauli channels draw a Pauli operator; damping channels use the
//     quantum-jump method (jump probability from the qubit's |1> marginal,
//     renormalization after the no-jump branch). Model.Draw is the only
//     place a channel consumes randomness: it hands each drawn operator to
//     a Target — the dense state (Dense), a stabilizer tableau, or the
//     reuse dry run behind SegmentFires — so every engine and the dry run
//     read one stream the same way.
//
// A Model binds channels to gates: every one-qubit gate is followed by the
// model's one-qubit channels on its operand, every two-qubit gate by the
// two-qubit channels, and measurement results pass through an optional
// classical readout flip.
package noise

import (
	"fmt"
	"math"

	"tqsim/internal/qmath"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// Channel is a noise channel on one or two qubits. Its trajectory draw is
// unexported, so the channels of this package are the only ones: Model.Draw
// and SegmentFires rely on knowing how each consumes randomness.
type Channel interface {
	// Name returns a short identifier, e.g. "depolarizing(0.001)".
	Name() string
	// Arity returns 1 or 2.
	Arity() int
	// Kraus returns the channel's Kraus operators (dimension 2^Arity).
	// They satisfy sum_i K_i† K_i = I.
	Kraus() []qmath.Matrix
	// ErrorProb returns the probability that the channel perturbs the state
	// (the "error rate" e_i used by DCP's Equation 4).
	ErrorProb() float64
	// draw samples one trajectory branch of the channel on the given qubits
	// (len == Arity) and hands its operators to t. It returns the number of
	// operators handed over and more=false when t asked to stop.
	draw(qubits []int, r *rng.RNG, t Target) (ops int, more bool)
}

// OpKind names a trajectory operator.
type OpKind uint8

// The operators a channel draws. OpJump is amplitude damping's
// (unnormalized) jump |0><1|; OpDiag is diag(D0, D1). Both leave the state
// unnormalized, so a target renormalizes after them.
const (
	OpX OpKind = iota + 1
	OpY
	OpZ
	OpJump
	OpDiag
)

// Op is one drawn operator; D0 and D1 are OpDiag's diagonal.
type Op struct {
	Kind   OpKind
	D0, D1 float64
}

// pauliOps indexes the Pauli operators by 1=X, 2=Y, 3=Z.
var pauliOps = [4]Op{{}, {Kind: OpX}, {Kind: OpY}, {Kind: OpZ}}

// Target receives the operators a channel draws.
type Target interface {
	// Apply applies op to qubit q and reports whether the draw goes on.
	Apply(q int, op Op) bool
	// Prob1 returns the probability of reading qubit q as 1, which damping
	// channels read to draw their jump.
	Prob1(q int) float64
}

// Dense is a state vector as a Target: every operator runs on its
// amplitudes, and the state stays normalized.
type Dense statevec.State

// Preallocated trajectory operators. Channels fire after every gate of every
// tree node, so per-application qmath.FromRows allocations would be pure
// hot-path garbage. X and Z go through the statevec swap and diagonal
// subspace kernels instead of the generic 2x2 path.
var (
	pauliYMat = qmath.FromRows([][]complex128{{0, -1i}, {1i, 0}})
	adJumpMat = qmath.FromRows([][]complex128{{0, 1}, {0, 0}})
)

// Apply implements Target.
func (d *Dense) Apply(q int, op Op) bool {
	s := (*statevec.State)(d)
	switch op.Kind {
	case OpX:
		s.ApplyX(q)
	case OpY:
		s.Apply1Q(q, pauliYMat)
	case OpZ:
		s.ApplyDiag1Q(q, 1, -1)
	case OpJump:
		s.Apply1Q(q, adJumpMat)
		s.Normalize()
	case OpDiag:
		s.ApplyDiag1Q(q, complex(op.D0, 0), complex(op.D1, 0))
		s.Normalize()
	}
	return true
}

// Prob1 implements Target.
func (d *Dense) Prob1(q int) float64 { return (*statevec.State)(d).Prob1(q) }

// dryRun is the Target of the reuse dry run: it stops the draw at the first
// operator and reads no state, so only state-independent (Pauli) draws may
// reach it.
type dryRun struct{}

func (dryRun) Apply(int, Op) bool { return false }

func (dryRun) Prob1(int) float64 { panic("noise: a dry run cannot draw a state-dependent channel") }

// pauli1 returns the four single-qubit Paulis I, X, Y, Z.
func pauli1() [4]qmath.Matrix {
	return [4]qmath.Matrix{
		qmath.Identity(2),
		qmath.FromRows([][]complex128{{0, 1}, {1, 0}}),
		qmath.FromRows([][]complex128{{0, -1i}, {1i, 0}}),
		qmath.FromRows([][]complex128{{1, 0}, {0, -1}}),
	}
}

// Depolarizing1Q is the single-qubit depolarizing channel: with probability
// P one of X, Y, Z is applied (uniformly).
type Depolarizing1Q struct{ P float64 }

// Name implements Channel.
func (d Depolarizing1Q) Name() string { return fmt.Sprintf("depolarizing(%g)", d.P) }

// Arity implements Channel.
func (d Depolarizing1Q) Arity() int { return 1 }

// ErrorProb implements Channel.
func (d Depolarizing1Q) ErrorProb() float64 { return d.P }

// Kraus implements Channel.
func (d Depolarizing1Q) Kraus() []qmath.Matrix {
	ps := pauli1()
	out := make([]qmath.Matrix, 4)
	out[0] = ps[0].Scale(complex(math.Sqrt(1-d.P), 0))
	w := complex(math.Sqrt(d.P/3), 0)
	for i := 1; i < 4; i++ {
		out[i] = ps[i].Scale(w)
	}
	return out
}

// draw implements Channel. It fires on a uniform draw below P, so a NaN rate
// never fires.
func (d Depolarizing1Q) draw(qubits []int, r *rng.RNG, t Target) (int, bool) {
	if r.Float64() < d.P {
		return 1, t.Apply(qubits[0], pauliOps[1+r.Intn(3)])
	}
	return 0, true
}

// Depolarizing2Q is the two-qubit depolarizing channel: with probability P
// one of the 15 non-identity Pauli pairs is applied (uniformly).
type Depolarizing2Q struct{ P float64 }

// Name implements Channel.
func (d Depolarizing2Q) Name() string { return fmt.Sprintf("depolarizing2(%g)", d.P) }

// Arity implements Channel.
func (d Depolarizing2Q) Arity() int { return 2 }

// ErrorProb implements Channel.
func (d Depolarizing2Q) ErrorProb() float64 { return d.P }

// Kraus implements Channel.
func (d Depolarizing2Q) Kraus() []qmath.Matrix {
	ps := pauli1()
	out := make([]qmath.Matrix, 0, 16)
	out = append(out, qmath.Identity(4).Scale(complex(math.Sqrt(1-d.P), 0)))
	w := complex(math.Sqrt(d.P/15), 0)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == 0 && b == 0 {
				continue
			}
			// Convention: first qubit is the low bit, so it is the right
			// factor of the Kronecker product.
			out = append(out, qmath.Kron(ps[b], ps[a]).Scale(w))
		}
	}
	return out
}

// draw implements Channel, firing as Depolarizing1Q's does.
func (d Depolarizing2Q) draw(qubits []int, r *rng.RNG, t Target) (int, bool) {
	if !(r.Float64() < d.P) {
		return 0, true
	}
	k := 1 + r.Intn(15) // index into the 15 non-identity pairs
	a, b := k&3, k>>2
	ops := 0
	if a != 0 {
		ops++
		if !t.Apply(qubits[0], pauliOps[a]) {
			return ops, false
		}
	}
	if b != 0 {
		ops++
		return ops, t.Apply(qubits[1], pauliOps[b])
	}
	return ops, true
}

// AmplitudeDamping models energy relaxation with damping ratio Gamma:
// K0 = [[1,0],[0,sqrt(1-g)]], K1 = [[0,sqrt(g)],[0,0]].
type AmplitudeDamping struct{ Gamma float64 }

// Name implements Channel.
func (a AmplitudeDamping) Name() string { return fmt.Sprintf("amplitude-damping(%g)", a.Gamma) }

// Arity implements Channel.
func (a AmplitudeDamping) Arity() int { return 1 }

// ErrorProb implements Channel.
func (a AmplitudeDamping) ErrorProb() float64 { return a.Gamma }

// Kraus implements Channel.
func (a AmplitudeDamping) Kraus() []qmath.Matrix {
	return []qmath.Matrix{
		qmath.FromRows([][]complex128{{1, 0}, {0, complex(math.Sqrt(1-a.Gamma), 0)}}),
		qmath.FromRows([][]complex128{{0, complex(math.Sqrt(a.Gamma), 0)}, {0, 0}}),
	}
}

// draw implements Channel. The jump probability is Gamma * P(|1>); the
// no-jump branch applies K0 and renormalizes.
func (a AmplitudeDamping) draw(qubits []int, r *rng.RNG, t Target) (int, bool) {
	if a.Gamma <= 0 {
		return 0, true
	}
	q := qubits[0]
	if r.Float64() < a.Gamma*t.Prob1(q) {
		// Jump: |1> -> |0> with K1; resulting state is |0> on q.
		return 1, t.Apply(q, Op{Kind: OpJump})
	}
	// No-jump K0 = diag(1, sqrt(1-gamma)): subspace kernel, no matrix.
	return 1, t.Apply(q, Op{Kind: OpDiag, D0: 1, D1: math.Sqrt(1 - a.Gamma)})
}

// PhaseDamping models pure dephasing with ratio Lambda:
// K0 = [[1,0],[0,sqrt(1-l)]], K1 = [[0,0],[0,sqrt(l)]].
type PhaseDamping struct{ Lambda float64 }

// Name implements Channel.
func (p PhaseDamping) Name() string { return fmt.Sprintf("phase-damping(%g)", p.Lambda) }

// Arity implements Channel.
func (p PhaseDamping) Arity() int { return 1 }

// ErrorProb implements Channel.
func (p PhaseDamping) ErrorProb() float64 { return p.Lambda }

// Kraus implements Channel.
func (p PhaseDamping) Kraus() []qmath.Matrix {
	return []qmath.Matrix{
		qmath.FromRows([][]complex128{{1, 0}, {0, complex(math.Sqrt(1-p.Lambda), 0)}}),
		qmath.FromRows([][]complex128{{0, 0}, {0, complex(math.Sqrt(p.Lambda), 0)}}),
	}
}

func (p PhaseDamping) draw(qubits []int, r *rng.RNG, t Target) (int, bool) {
	if p.Lambda <= 0 {
		return 0, true
	}
	q := qubits[0]
	if r.Float64() < p.Lambda*t.Prob1(q) {
		// Jump: project onto |1><1| (up to normalization).
		return 1, t.Apply(q, Op{Kind: OpDiag, D0: 0, D1: 1})
	}
	return 1, t.Apply(q, Op{Kind: OpDiag, D0: 1, D1: math.Sqrt(1 - p.Lambda)})
}

// ThermalRelaxation models decoherence from T1 (relaxation) and T2
// (dephasing) during a gate of duration GateTime. It composes amplitude
// damping with gamma = 1-exp(-t/T1) and phase damping with
// lambda = 1-exp(t/T1 - 2t/T2), which reproduces the e^{-t/T2} coherence
// decay. Requires T2 <= 2*T1 (physical).
type ThermalRelaxation struct {
	T1, T2, GateTime float64
}

// Name implements Channel.
func (t ThermalRelaxation) Name() string {
	return fmt.Sprintf("thermal-relaxation(T1=%g,T2=%g,t=%g)", t.T1, t.T2, t.GateTime)
}

// Arity implements Channel.
func (t ThermalRelaxation) Arity() int { return 1 }

func (t ThermalRelaxation) params() (gamma, lambda float64) {
	if t.T2 > 2*t.T1 {
		panic("noise: thermal relaxation requires T2 <= 2*T1")
	}
	gamma = 1 - math.Exp(-t.GateTime/t.T1)
	lambda = 1 - math.Exp(t.GateTime/t.T1-2*t.GateTime/t.T2)
	if lambda < 0 {
		lambda = 0
	}
	return gamma, lambda
}

// ErrorProb implements Channel.
func (t ThermalRelaxation) ErrorProb() float64 {
	g, l := t.params()
	// Probability that at least one of the composed channels acts.
	return 1 - (1-g)*(1-l)
}

// Kraus implements Channel. The composite channel's Kraus set is the
// pairwise product of the AD and PD Kraus sets.
func (t ThermalRelaxation) Kraus() []qmath.Matrix {
	g, l := t.params()
	ad := AmplitudeDamping{Gamma: g}.Kraus()
	pd := PhaseDamping{Lambda: l}.Kraus()
	var out []qmath.Matrix
	for _, a := range ad {
		for _, p := range pd {
			out = append(out, qmath.Mul(a, p))
		}
	}
	return out
}

func (t ThermalRelaxation) draw(qubits []int, r *rng.RNG, tg Target) (int, bool) {
	g, l := t.params()
	ops, more := PhaseDamping{Lambda: l}.draw(qubits, r, tg)
	if !more {
		return ops, false
	}
	n, more := AmplitudeDamping{Gamma: g}.draw(qubits, r, tg)
	return ops + n, more
}

// PerQubit adapts a single-qubit channel to two-qubit gates by applying it
// independently to each operand.
type PerQubit struct{ C Channel }

// Name implements Channel.
func (p PerQubit) Name() string { return p.C.Name() + "⊗each" }

// Arity implements Channel.
func (p PerQubit) Arity() int { return 2 }

// ErrorProb implements Channel.
func (p PerQubit) ErrorProb() float64 {
	e := p.C.ErrorProb()
	return 1 - (1-e)*(1-e)
}

// Kraus implements Channel: the product channel's Kraus set is all
// Kronecker pairs.
func (p PerQubit) Kraus() []qmath.Matrix {
	ks := p.C.Kraus()
	var out []qmath.Matrix
	for _, a := range ks {
		for _, b := range ks {
			// First qubit is the low bit → right Kronecker factor.
			out = append(out, qmath.Kron(b, a))
		}
	}
	return out
}

func (p PerQubit) draw(qubits []int, r *rng.RNG, t Target) (int, bool) {
	ops, more := p.C.draw(qubits[:1], r, t)
	if !more {
		return ops, false
	}
	n, more := p.C.draw(qubits[1:2], r, t)
	return ops + n, more
}
