// Package partition implements the circuit partitioning strategies of the
// paper's Section 3.2: Uniform Circuit Partition (UCP), Exponential Circuit
// Partition (XCP), and the proposed Dynamic Circuit Partition (DCP), which
// sizes the first subcircuit from the state-copy-cost profile and its shot
// count A0 from the statistical sample-size bound (Equations 4 and 5), then
// fills the remaining levels with a uniform arity (Equation 6).
//
// A Plan captures the result: subcircuit boundaries plus the arity sequence
// (A0, A1, ..., Ak-1) of the simulation tree, and exposes the node/outcome
// accounting (Equation 3) and the theoretical speedup bound of Section 3.6.
package partition

import (
	"fmt"
	"math"
	"strings"

	"tqsim/internal/circuit"
	"tqsim/internal/noise"
	"tqsim/internal/statevec"
)

// Plan is a simulation-tree specification: how the circuit splits into
// subcircuits and the arity of each tree level.
type Plan struct {
	Circuit *circuit.Circuit
	// Bounds are the gate-index cut points; len(Bounds) = len(Arities)-1.
	Bounds []int
	// Arities is the tree structure (A0, ..., Ak-1): Arities[i] children
	// per node at depth i. The product is the total outcome count.
	Arities []int
	// Strategy names the partitioner that produced the plan.
	Strategy string
}

// Subcircuits materializes the gate slices between bounds.
func (p *Plan) Subcircuits() []*circuit.Circuit {
	if len(p.Bounds) == 0 {
		return []*circuit.Circuit{p.Circuit}
	}
	return p.Circuit.SplitAt(p.Bounds...)
}

// Levels returns the number of tree levels (subcircuits).
func (p *Plan) Levels() int { return len(p.Arities) }

// TotalOutcomes returns the product of arities — the leaf count — saturated
// at math.MaxInt, which Validate rejects.
func (p *Plan) TotalOutcomes() int { return product(p.Arities) }

// Instances returns the instance count of each subcircuit: the paper's
// Equation 3, prod_{j<=i} A_j for the i-th (0-indexed) subcircuit.
func (p *Plan) Instances() []int {
	out := make([]int, len(p.Arities))
	acc := 1
	for i, a := range p.Arities {
		acc *= a
		out[i] = acc
	}
	return out
}

// TotalNodes returns the node count of the simulation tree including the
// initial-state root (Figure 6/7 count nodes this way).
func (p *Plan) TotalNodes() int {
	n := 1
	for _, inst := range p.Instances() {
		n += inst
	}
	return n
}

// GateWork returns the total gate applications of the tree: each instance
// of subcircuit i applies len_i gates.
func (p *Plan) GateWork() int64 {
	subs := p.Subcircuits()
	inst := p.Instances()
	var work int64
	for i, sc := range subs {
		work += int64(inst[i]) * int64(sc.Len())
	}
	return work
}

// CopyWork returns the number of state copies the tree performs: one per
// node (each instance starts from a copy of its parent's state).
func (p *Plan) CopyWork() int64 {
	var n int64
	for _, inst := range p.Instances() {
		n += int64(inst)
	}
	return n
}

// BaselineGateWork returns the gate applications a baseline (N,1,..,1)-run
// producing the same outcome count would need.
func (p *Plan) BaselineGateWork() int64 {
	return int64(p.TotalOutcomes()) * int64(p.Circuit.Len())
}

// TheoreticalSpeedup returns baseline work over tree work, including copy
// overhead weighed at copyCost gate-equivalents per copy (Section 3.6).
func (p *Plan) TheoreticalSpeedup(copyCost float64) float64 {
	tree := float64(p.GateWork()) + copyCost*float64(p.CopyWork())
	base := float64(p.BaselineGateWork()) + copyCost*float64(p.TotalOutcomes())
	if tree <= 0 {
		return 1
	}
	return base / tree
}

// Structure renders the arity tuple like "(16,2,2)".
func (p *Plan) Structure() string {
	parts := make([]string, len(p.Arities))
	for i, a := range p.Arities {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Validate checks structural invariants: positive arities whose product
// fits an int, ordered bounds, and bound/arity count consistency.
func (p *Plan) Validate() error {
	if len(p.Arities) == 0 {
		return fmt.Errorf("partition: empty arity sequence")
	}
	for i, a := range p.Arities {
		if a < 1 {
			return fmt.Errorf("partition: arity %d at level %d", a, i)
		}
	}
	if p.TotalOutcomes() == math.MaxInt {
		return fmt.Errorf("partition: the leaf count of %d levels overflows", len(p.Arities))
	}
	if len(p.Bounds) != len(p.Arities)-1 {
		return fmt.Errorf("partition: %d bounds for %d levels", len(p.Bounds), len(p.Arities))
	}
	prev := 0
	for _, b := range p.Bounds {
		if b <= prev || b >= p.Circuit.Len() {
			return fmt.Errorf("partition: bad bound %d (prev %d, circuit %d gates)",
				b, prev, p.Circuit.Len())
		}
		prev = b
	}
	return nil
}

// equalBounds cuts nGates into k near-equal consecutive parts and returns
// the k-1 cut points, offset by `offset`.
func equalBounds(offset, nGates, k int) []int {
	bounds := make([]int, 0, k-1)
	for i := 1; i < k; i++ {
		bounds = append(bounds, offset+i*nGates/k)
	}
	return bounds
}

// Baseline returns the (shots, 1, ..., 1)-equivalent plan: a single
// subcircuit whose arity is the shot count (Figure 6b).
func Baseline(c *circuit.Circuit, shots int) *Plan {
	return &Plan{Circuit: c, Arities: []int{shots}, Strategy: "baseline"}
}

// FromStructure builds a plan with the given arity tuple over k equal-length
// subcircuits — used for the paper's manual structures in Figure 17.
func FromStructure(c *circuit.Circuit, arities []int) *Plan {
	k := len(arities)
	if k < 1 || c.Len() < k {
		panic(fmt.Sprintf("partition: cannot cut %d gates into %d parts", c.Len(), k))
	}
	return &Plan{
		Circuit:  c,
		Bounds:   equalBounds(0, c.Len(), k),
		Arities:  append([]int(nil), arities...),
		Strategy: "manual",
	}
}

// Uniform implements UCP: k equal subcircuits, all with the same arity
// ceil(shots^(1/k)) so the outcome count reaches at least `shots`.
func Uniform(c *circuit.Circuit, shots, k int) *Plan {
	if k < 1 {
		panic("partition: UCP needs k >= 1")
	}
	a := int(math.Ceil(math.Pow(float64(shots), 1/float64(k))))
	if a < 1 {
		a = 1
	}
	// Trim overshoot: lower later arities while the product still covers shots.
	arities := make([]int, k)
	for i := range arities {
		arities[i] = a
	}
	for i := k - 1; i >= 0; i-- {
		for arities[i] > 1 {
			arities[i]--
			if product(arities) < shots {
				arities[i]++
				break
			}
		}
	}
	p := FromStructure(c, arities)
	p.Strategy = "UCP"
	return p
}

// Exponential implements XCP: arities decrease geometrically (earlier
// levels get exponentially more instances), e.g. (20,10,5) in the paper's
// Figure 17 discussion. It errors where k is so deep that the leaf count
// overflows.
func Exponential(c *circuit.Circuit, shots, k int) (*Plan, error) {
	if k < 1 {
		panic("partition: XCP needs k >= 1")
	}
	// Choose a base b and top arity t so that product_i t/b^i ≈ shots with
	// the last arity >= 2. Use b = 2.
	arities := make([]int, k)
	// t^k / 2^(k(k-1)/2) = shots  =>  t = (shots * 2^(k(k-1)/2))^(1/k)
	exp := float64(k*(k-1)) / 2
	t := math.Pow(float64(shots)*math.Pow(2, exp), 1/float64(k))
	if !(t < 1<<62) { // +Inf from k >= 46 included
		return nil, fmt.Errorf("partition: XCP over %d levels overflows the leaf count", k)
	}
	for i := range arities {
		arities[i] = int(math.Max(1, math.Round(t/math.Pow(2, float64(i)))))
	}
	for product(arities) < shots {
		arities[0]++
	}
	p := FromStructure(c, arities)
	p.Strategy = "XCP"
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// product returns the product of xs, saturated at math.MaxInt so
// that the partitioners' "cover the shots" loops end on any input.
func product(xs []int) int {
	n := 1
	for _, x := range xs {
		if x > 0 && n > math.MaxInt/x {
			return math.MaxInt
		}
		n *= x
	}
	return n
}

// DCPOptions tunes the Dynamic Circuit Partition.
type DCPOptions struct {
	// CopyCost is the profiled state-copy cost in gate-equivalents
	// (Figure 10). It sets the minimum subcircuit length. Zero selects
	// DefaultCopyCost.
	CopyCost float64
	// Z is the confidence coefficient of Equation 5 (default 1.96 ≈ 95%).
	Z float64
	// Epsilon is the margin of error of Equation 5 (default 0.02).
	Epsilon float64
	// MaxLevels caps the number of subcircuits (0 = no cap beyond the
	// copy-cost and shot-based limits).
	MaxLevels int
	// MemoryBudgetBytes caps the number of concurrently held intermediate
	// states: levels are reduced until (levels+1) state vectors fit.
	// Zero disables the check.
	MemoryBudgetBytes int64
}

// DefaultCopyCost is a server-CPU-class state copy cost in gate-equivalents,
// in line with the Xeon systems of Figure 10. Profiling (internal/core)
// refines it per host.
const DefaultCopyCost = 30

// Defaults for Equation 5. Epsilon = 0.02 reproduces the paper's QFT_14
// worked example (A0 ≈ 500 of 32,000 shots at p̂ ≈ 0.065) to within ~15%.
const (
	DefaultZ       = 1.96
	DefaultEpsilon = 0.02
)

// SampleSize evaluates Equation 5: the minimum number of first-level nodes
// that represents an N-shot population with margin eps at confidence z,
// where p is the first subcircuit's aggregate error rate (Equation 4).
func SampleSize(z, p, eps float64, n int) int {
	if p <= 0 {
		return 1
	}
	if p > 0.5 {
		p = 0.5 // variance is maximal at 1/2; clamp keeps the bound monotone
	}
	num := z * z * p * (1 - p) / (eps * eps)
	a0 := num / (1 + num/float64(n))
	out := int(math.Ceil(a0))
	if out < 1 {
		out = 1
	}
	if out > n {
		out = n
	}
	return out
}

// Dynamic implements DCP (Section 3.2). The returned plan degrades
// gracefully: when the circuit is too short or the shot budget too small to
// admit reuse, it returns the baseline plan.
func Dynamic(c *circuit.Circuit, m *noise.Model, shots int, opt DCPOptions) *Plan {
	if opt.CopyCost <= 0 {
		opt.CopyCost = DefaultCopyCost
	}
	if opt.Z <= 0 {
		opt.Z = DefaultZ
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = DefaultEpsilon
	}
	minLen := int(math.Ceil(opt.CopyCost))
	if minLen < 1 {
		minLen = 1
	}
	total := c.Len()
	// Need a first subcircuit of minLen plus at least one more subcircuit
	// of minLen for any reuse to pay off.
	if total < 2*minLen || shots < 4 {
		return Baseline(c, shots)
	}

	// Phase 1: first subcircuit = the fewest gates that amortize a copy.
	firstLen := minLen
	phat := m.SegmentErrorProb(c.Gates[:firstLen])
	a0 := SampleSize(opt.Z, phat, opt.Epsilon, shots)

	// Phase 2: shot-based level limit — max k with floor((N/A0)^(1/k)) >= 2.
	ratio := float64(shots) / float64(a0)
	if ratio < 2 {
		return Baseline(c, shots)
	}
	kShots := int(math.Floor(math.Log2(ratio)))
	// Gate-count/copy-cost limit: each remaining subcircuit needs >= minLen gates.
	remaining := total - firstLen
	kGates := remaining / minLen
	k := kShots
	if kGates < k {
		k = kGates
	}
	if opt.MaxLevels > 0 && opt.MaxLevels-1 < k {
		k = opt.MaxLevels - 1
	}
	if opt.MemoryBudgetBytes > 0 {
		// The base term of the executor's memory rule at one worker: one
		// state per level plus one working copy, the per-state size from the
		// allocator's own constant. The rest of the rule — more workers, the
		// spine and quiet-child states of a reusing run, and dropping reuse
		// when they do not fit — lives in core.DensePeakBytes (core imports
		// this package, so the term is spelled here).
		stateBytes := statevec.StateBytes(c.NumQubits)
		for k >= 1 && int64(k+2)*stateBytes > opt.MemoryBudgetBytes {
			k--
		}
	}
	if k < 1 {
		return Baseline(c, shots)
	}

	ar := int(math.Floor(math.Pow(ratio, 1/float64(k))))
	if ar < 2 {
		ar = 2
	}
	arities := make([]int, k+1)
	arities[0] = a0
	for i := 1; i <= k; i++ {
		arities[i] = ar
	}
	// Adjustment pass: increment arities (cycling from the level after the
	// statistically sized first one) until the outcome count covers the
	// requested shots.
	idx := 1 % len(arities)
	for product(arities) < shots {
		arities[idx]++
		idx++
		if idx == len(arities) {
			idx = 1 % len(arities)
		}
	}

	bounds := append([]int{firstLen}, equalBounds(firstLen, remaining, k)...)
	p := &Plan{Circuit: c, Bounds: bounds, Arities: arities, Strategy: "DCP"}
	if err := p.Validate(); err != nil {
		// Defensive: never hand the executor an inconsistent plan.
		return Baseline(c, shots)
	}
	return p
}
