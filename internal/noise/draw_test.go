package noise

import (
	"math"
	"reflect"
	"testing"

	"tqsim/internal/gate"
	"tqsim/internal/rng"
	"tqsim/internal/statevec"
)

// drawn is one operator a recorder saw.
type drawn struct {
	q  int
	op Op
}

// recorder wraps a Target and logs every operator handed to it.
type recorder struct {
	Target
	ops []drawn
}

func (r *recorder) Apply(q int, op Op) bool {
	r.ops = append(r.ops, drawn{q, op})
	return r.Target.Apply(q, op)
}

// drawOperands are the operand lists of a one-, two- and three-qubit gate on
// a 3-qubit register.
var drawOperands = [][]int{{2}, {0, 2}, {1, 0, 2}}

// drawState returns a 3-qubit state with no qubit at a |1> marginal of 0 or
// 1, so damping channels take both branches.
func drawState() *statevec.State {
	s := statevec.NewZero(3)
	for _, g := range []gate.Gate{
		gate.New(gate.KindH, 0), gate.New(gate.KindH, 1), gate.NewParam(gate.KindRY, []float64{0.7}, 2),
		gate.New(gate.KindT, 1), gate.New(gate.KindCX, 0, 2),
	} {
		s.Apply(g)
	}
	return s
}

// TestDrawOneStreamForEveryTarget: Draw consumes one stream whatever it
// draws into. For every model Lookup knows, every gate arity and 600 seeds,
// a recording target around Dense leaves the stream where Dense alone does,
// with the same state, and Draw returns the number of operators applied.
// The dry run stops at exactly the first operator: it sees Dense's first
// operator when Dense applies any, and otherwise stands where Dense stands.
func TestDrawOneStreamForEveryTarget(t *testing.T) {
	base := drawState()
	bare, wrapped := statevec.NewZero(3), statevec.NewZero(3)
	for _, name := range []string{"ideal", "DC", "DCR", "TR", "TRR", "AD", "ADR", "PD", "PDR", "ALL"} {
		m, _ := Lookup(name)
		fired := 0
		for _, qs := range drawOperands {
			for seed := uint64(0); seed < 600; seed++ {
				bare.CopyFrom(base)
				wrapped.CopyFrom(base)
				a, b := rng.New(seed), rng.New(seed)
				want := m.Draw(qs, a, (*Dense)(bare))
				rec := &recorder{Target: (*Dense)(wrapped)}
				if got := m.Draw(qs, b, rec); got != want || got != len(rec.ops) {
					t.Fatalf("%s %v seed %d: Draw returned %d and %d, recorded %d operators", name, qs, seed, want, got, len(rec.ops))
				}
				if *a != *b || !reflect.DeepEqual(bare, wrapped) {
					t.Fatalf("%s %v seed %d: a recording target changed the stream or the state", name, qs, seed)
				}
				if !m.PauliOnly() {
					continue
				}
				probe := rng.New(seed)
				dry := &recorder{Target: dryRun{}}
				n := m.Draw(qs, probe, dry)
				switch {
				case n != len(dry.ops) || n > 1:
					t.Fatalf("%s %v seed %d: the dry run returned %d after %d operators", name, qs, seed, n, len(dry.ops))
				case (n == 1) != (want > 0):
					t.Fatalf("%s %v seed %d: the dry run drew %d operators, Dense %d", name, qs, seed, n, want)
				case n == 1 && dry.ops[0] != rec.ops[0]:
					t.Fatalf("%s %v seed %d: the dry run stopped at %+v, Dense's first operator is %+v", name, qs, seed, dry.ops[0], rec.ops[0])
				case n == 0 && *probe != *a:
					t.Fatalf("%s %v seed %d: a dry run that drew nothing left the stream elsewhere than Dense", name, qs, seed)
				}
				fired += n
			}
		}
		if m.PauliOnly() && m != nil && fired == 0 {
			t.Fatalf("%s: no draw fired in %d tries", name, len(drawOperands)*600)
		}
	}
}

// FuzzDraw: over depolarizing rates (0, 1, subnormals and NaN among the
// seeds), a gate arity and a seed, the reuse dry run and the dense draw read
// one stream. A dry run that fires nothing leaves the stream exactly where
// the dense draw leaves it, having applied nothing; a dry run that fires
// means the dense draw applied at least one operator.
func FuzzDraw(f *testing.F) {
	for _, c := range []struct {
		p1, p2 float64
		arity  uint8
		seed   uint64
	}{
		{0, 0, 1, 1}, {1, 1, 2, 2}, {0, 1, 3, 3}, {1, 0, 1, 4},
		{SycamoreOneQubitError, SycamoreTwoQubitError, 2, 5},
		{5e-324, 2.2250738585072009e-308, 3, 6}, {0.5, 0.5, 2, 7},
		{math.NaN(), 0.01, 1, 8},
	} {
		f.Add(c.p1, c.p2, c.arity, c.seed)
	}
	f.Fuzz(func(t *testing.T, p1, p2 float64, arity uint8, seed uint64) {
		m := NewDepolarizing(p1, p2)
		g := gate.Gate{Kind: gate.KindI, Qubits: drawOperands[int(arity)%len(drawOperands)]}
		probe, real := rng.New(seed), rng.New(seed)
		fired, ok := m.SegmentFires([]gate.Gate{g}, probe)
		ops := m.Draw(g.Qubits, real, (*Dense)(drawState()))
		switch {
		case !ok:
			t.Fatalf("p1=%g p2=%g: a depolarizing model refused the dry run", p1, p2)
		case fired && ops == 0:
			t.Fatalf("p1=%g p2=%g arity %d seed %d: the dry run fired, the dense draw applied nothing", p1, p2, len(g.Qubits), seed)
		case !fired && (ops != 0 || *probe != *real):
			t.Fatalf("p1=%g p2=%g arity %d seed %d: the dry run fired nothing, the dense draw applied %d operators or read elsewhere", p1, p2, len(g.Qubits), seed, ops)
		}
	})
}
