package noise

import (
	"strings"

	"tqsim/internal/circuit"
	"tqsim/internal/gate"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// Readout is a classical measurement error: each measured bit flips
// 0->1 with probability P01 and 1->0 with probability P10.
type Readout struct {
	P01, P10 float64
}

// Flip perturbs the n-bit outcome according to the readout error.
func (ro Readout) Flip(bits uint64, n int, r *rng.RNG) uint64 {
	for q := 0; q < n; q++ {
		mask := uint64(1) << uint(q)
		p := ro.P01
		if bits&mask != 0 {
			p = ro.P10
		}
		if p > 0 && r.Float64() < p {
			bits ^= mask
		}
	}
	return bits
}

// Model binds noise channels to circuit execution. OneQubit channels follow
// every one-qubit gate (on its operand); TwoQubit channels follow every gate
// touching two or more qubits (on its first two operands), and a
// three-qubit gate draws the OneQubit channels on its third as well.
// Readout, when non-nil, perturbs sampled outcomes.
type Model struct {
	ModelName string
	OneQubit  []Channel // arity-1 channels
	TwoQubit  []Channel // arity-2 channels (wrap arity-1 with PerQubit)
	Readout   *Readout
}

// Name returns the model identifier, e.g. "DC" or "TRR".
func (m *Model) Name() string {
	if m == nil {
		return "ideal"
	}
	return m.ModelName
}

// Ideal reports whether the model applies no noise at all.
func (m *Model) Ideal() bool {
	return m == nil || (len(m.OneQubit) == 0 && len(m.TwoQubit) == 0 && m.Readout == nil)
}

// GateErrorProb returns the probability that at least one channel fires
// after gate g — the e_i of the paper's Equation 4. It counts the channels
// Draw draws: a three-qubit gate draws the two-qubit channels and the
// one-qubit channels.
func (m *Model) GateErrorProb(g gate.Gate) float64 {
	if m == nil {
		return 0
	}
	keep := 1.0
	one, two := m.afterGate(g.Arity())
	for _, c := range two {
		keep *= 1 - c.ErrorProb()
	}
	for _, c := range one {
		keep *= 1 - c.ErrorProb()
	}
	return 1 - keep
}

// afterGate is the one rule for which channels follow a gate of the given
// arity: the two-qubit channels, drawn first, on its first two operands, and
// the one-qubit channels on its last operand. A one-qubit gate draws only
// the one-qubit channels, a two-qubit gate only the two-qubit ones, and a
// three-qubit gate both. Draw (and through it every engine and the reuse
// dry run), GateErrorProb and TrajectoryOps all read it.
func (m *Model) afterGate(arity int) (one, two []Channel) {
	switch arity {
	case 1:
		return m.OneQubit, nil
	case 2:
		return nil, m.TwoQubit
	}
	return m.OneQubit, m.TwoQubit
}

// SegmentErrorProb returns 1 - prod(1 - e_i) over the gates — the paper's
// Equation 4 applied to a subcircuit.
func (m *Model) SegmentErrorProb(gs []gate.Gate) float64 {
	keep := 1.0
	for _, g := range gs {
		keep *= 1 - m.GateErrorProb(g)
	}
	return 1 - keep
}

// Draw draws the model's channels following a gate on qubits and hands
// every drawn operator to t; it returns the number of operators handed over.
// It is the one place a channel consumes randomness, and afterGate's operand
// rule lives only here: the two-qubit channels act on the first two
// operands, the one-qubit channels on the last (for gates on three qubits,
// e.g. un-decomposed Toffolis, a conservative approximation noted in
// DESIGN.md). The walk stops early when t.Apply returns false.
func (m *Model) Draw(qubits []int, r *rng.RNG, t Target) int {
	if m == nil {
		return 0
	}
	ops := 0
	one, two := m.afterGate(len(qubits))
	for _, c := range two {
		n, more := c.draw(qubits[:2], r, t)
		if ops += n; !more {
			return ops
		}
	}
	for _, c := range one {
		n, more := c.draw(qubits[len(qubits)-1:], r, t)
		if ops += n; !more {
			return ops
		}
	}
	return ops
}

// ApplyAfterGate stochastically applies the model's channels following gate
// g to the dense state and returns the number of operators applied.
func (m *Model) ApplyAfterGate(s *statevec.State, g gate.Gate, r *rng.RNG) int {
	return m.Draw(g.Qubits, r, (*Dense)(s))
}

// SegmentFires dry-runs the model's stochastic channel decisions over a gate
// segment without touching any state: it is Draw with a target that stops at
// the first operator, so it consumes the RNG exactly as the real trajectory
// path does up to the first channel that fires, and reports whether one
// fired. Valid only for Pauli-only models — their firing decisions are
// state-independent fixed-probability draws, so the decision can be made
// before any amplitudes exist. Non-Pauli models return ok=false without
// consuming any randomness: damping channels derive jump probabilities from
// the state's |1> marginals, so there is nothing to pre-decide.
//
// Callers use it for ideal-prefix reuse (internal/core): probe a *copy* of
// the node RNG; when fired=false, adopt the copy (the draw stream advanced
// identically to a no-fire trajectory) and skip the segment's gate work;
// when fired=true, discard the copy and run the segment normally from the
// original RNG.
func (m *Model) SegmentFires(gs []gate.Gate, r *rng.RNG) (fired, ok bool) {
	if !m.PauliOnly() {
		return false, false
	}
	for i := range gs {
		if m.Draw(gs[i].Qubits, r, dryRun{}) > 0 {
			return true, true
		}
	}
	return false, true
}

// PauliOnly reports whether every channel of the model is depolarizing
// (Pauli), possibly plus a classical readout flip. Pauli channels map
// stabilizer states to stabilizer states, so exactly these models admit
// polynomial-time trajectory simulation on the tableau engine; damping and
// thermal channels do not (their no-jump branch is non-unitary on
// amplitudes).
func (m *Model) PauliOnly() bool {
	if m == nil {
		return true
	}
	for _, c := range m.OneQubit {
		if _, isDep := c.(Depolarizing1Q); !isDep {
			return false
		}
	}
	for _, c := range m.TwoQubit {
		if _, isDep := c.(Depolarizing2Q); !isDep {
			return false
		}
	}
	return true
}

// FlipReadout applies the readout error (if any) to an n-bit outcome.
func (m *Model) FlipReadout(bits uint64, n int, r *rng.RNG) uint64 {
	if m == nil || m.Readout == nil {
		return bits
	}
	return m.Readout.Flip(bits, n, r)
}

// TrajectoryOps returns the number of channels Draw draws after gate g,
// used for computation accounting. It is not a bound on the operators a
// draw applies: a depolarizing pair can apply two, and a thermal channel on
// each operand of a two-qubit gate four.
func (m *Model) TrajectoryOps(g gate.Gate) int {
	if m == nil {
		return 0
	}
	one, two := m.afterGate(g.Arity())
	return len(one) + len(two)
}

// Sycamore-derived default error rates used throughout the paper
// (footnote 3): 0.1% per one-qubit gate, 1.5% per two-qubit gate.
const (
	SycamoreOneQubitError = 0.001
	SycamoreTwoQubitError = 0.015
)

// Default thermal-relaxation parameters (microseconds), conservative
// superconducting-qubit figures.
const (
	DefaultT1       = 25.0  // us
	DefaultT2       = 30.0  // us
	DefaultGateTime = 0.035 // us
)

// DefaultDampingRatio is the damping ratio used by the paper's AD/PD
// sensitivity studies (Section 4.3).
const DefaultDampingRatio = 0.01

// DefaultReadoutError is a conservative readout flip probability.
const DefaultReadoutError = 0.02

// NewDepolarizing returns the paper's primary noise model: depolarizing
// channels with the given one- and two-qubit error rates.
func NewDepolarizing(p1, p2 float64) *Model {
	return &Model{
		ModelName: "DC",
		OneQubit:  []Channel{Depolarizing1Q{P: p1}},
		TwoQubit:  []Channel{Depolarizing2Q{P: p2}},
	}
}

// NewSycamore returns the depolarizing model at Sycamore error rates.
func NewSycamore() *Model {
	return NewDepolarizing(SycamoreOneQubitError, SycamoreTwoQubitError)
}

// NewThermalRelaxation returns a thermal relaxation model. Two-qubit gates
// take twice the one-qubit gate time, a common device characteristic.
func NewThermalRelaxation(t1, t2, gateTime float64) *Model {
	return &Model{
		ModelName: "TR",
		OneQubit:  []Channel{ThermalRelaxation{T1: t1, T2: t2, GateTime: gateTime}},
		TwoQubit: []Channel{PerQubit{C: ThermalRelaxation{
			T1: t1, T2: t2, GateTime: 2 * gateTime,
		}}},
	}
}

// NewAmplitudeDamping returns an amplitude damping model with the given
// damping ratio on every gate operand.
func NewAmplitudeDamping(gamma float64) *Model {
	return &Model{
		ModelName: "AD",
		OneQubit:  []Channel{AmplitudeDamping{Gamma: gamma}},
		TwoQubit:  []Channel{PerQubit{C: AmplitudeDamping{Gamma: gamma}}},
	}
}

// NewPhaseDamping returns a phase damping model with the given ratio.
func NewPhaseDamping(lambda float64) *Model {
	return &Model{
		ModelName: "PD",
		OneQubit:  []Channel{PhaseDamping{Lambda: lambda}},
		TwoQubit:  []Channel{PerQubit{C: PhaseDamping{Lambda: lambda}}},
	}
}

// WithReadout returns a copy of the model with a readout error attached and
// "R" appended to its name (matching the paper's DCR/TRR/ADR/PDR labels).
func (m *Model) WithReadout(p float64) *Model {
	cp := *m
	cp.Readout = &Readout{P01: p, P10: p}
	cp.ModelName = m.ModelName + "R"
	return &cp
}

// Combine merges several models into one applying all their channels in
// order; the name is the concatenation (the paper's "ALL" uses every
// channel together).
func Combine(name string, models ...*Model) *Model {
	out := &Model{ModelName: name}
	for _, m := range models {
		out.OneQubit = append(out.OneQubit, m.OneQubit...)
		out.TwoQubit = append(out.TwoQubit, m.TwoQubit...)
		if m.Readout != nil {
			out.Readout = m.Readout
		}
	}
	return out
}

// Lookup resolves a model name: the paper's nine Figure-16 variants DC, DCR,
// TR, TRR, AD, ADR, PD, PDR and ALL, or ideal/none/"" for no noise (a nil
// model). Names are matched case-insensitively; the returned model's Name is
// the canonical spelling ("ideal" for nil), which is what cache and store
// keys should carry. ok is false for any other name — this is the one
// vocabulary every entry point (tqsim, experiments, tqsimd jobs and sweeps)
// accepts.
func Lookup(name string) (m *Model, ok bool) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "", "IDEAL", "NONE":
		return nil, true
	case "DC":
		return NewSycamore(), true
	case "DCR":
		return NewSycamore().WithReadout(DefaultReadoutError), true
	case "TR":
		return NewThermalRelaxation(DefaultT1, DefaultT2, DefaultGateTime), true
	case "TRR":
		return NewThermalRelaxation(DefaultT1, DefaultT2, DefaultGateTime).WithReadout(DefaultReadoutError), true
	case "AD":
		return NewAmplitudeDamping(DefaultDampingRatio), true
	case "ADR":
		return NewAmplitudeDamping(DefaultDampingRatio).WithReadout(DefaultReadoutError), true
	case "PD":
		return NewPhaseDamping(DefaultDampingRatio), true
	case "PDR":
		return NewPhaseDamping(DefaultDampingRatio).WithReadout(DefaultReadoutError), true
	case "ALL":
		all := Combine("ALL",
			NewSycamore(),
			NewThermalRelaxation(DefaultT1, DefaultT2, DefaultGateTime),
			NewAmplitudeDamping(DefaultDampingRatio),
			NewPhaseDamping(DefaultDampingRatio),
		)
		all.Readout = &Readout{P01: DefaultReadoutError, P10: DefaultReadoutError}
		return all, true
	}
	return nil, false
}

// ByName is Lookup for callers that have already validated the name: an
// unknown name returns nil, indistinguishable from ideal.
func ByName(name string) *Model {
	m, _ := Lookup(name)
	return m
}

// CircuitErrorProb returns Equation 4 evaluated over a whole circuit.
func (m *Model) CircuitErrorProb(c *circuit.Circuit) float64 {
	return m.SegmentErrorProb(c.Gates)
}
