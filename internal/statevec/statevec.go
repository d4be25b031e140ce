// Package statevec implements the Schrödinger-style state-vector engine the
// whole simulator runs on: 2^n amplitudes, in-place gate kernels,
// goroutine-parallel application for large registers, outcome sampling, and
// the inner-product machinery the fidelity metrics need.
//
// Memory layout: amplitudes are stored structure-of-arrays — two parallel
// []float64 planes (re, im) carved from one allocation — rather than
// []complex128. The split planes turn every kernel inner loop into
// independent float64 stream operations (unit-stride loads/multiplies/adds
// with no interleaved real/imag shuffling), and let gates with real matrices
// (H, RY, fused real products) skip the imaginary half of the arithmetic
// entirely.
//
// Kernels: every gate reaches the amplitudes one way, Lower then Run.
// Lower binds a gate to a register width — it validates and sorts the
// qubits, lays out the base-index progressions (a k-qubit gate acts on
// groups of 2^k amplitudes whose base index has the gate bits clear:
// contiguous runs when the lowest gate qubit is high enough, strided
// progressions over small cache-blocked tiles otherwise), and precomputes
// the slot masks, phases and split matrices. The resulting Kernel is its
// masks and constants plus one of a few stream primitives (mixReal,
// mixCplx, scale, scaleReal, swapStreams, mix4Real, mix4Cplx, mix8). Run
// decides serial versus pooled execution and walks the progressions; below
// ParallelThreshold it allocates nothing. The split exists because a tree
// run applies the same few hundred gates millions of times, and on small
// registers setup repeated per application was about a quarter of the run:
// internal/core lowers a circuit once per run and only runs kernels after
// that. State.Apply and the per-kind methods (ApplyX, ApplyDiag1Q, ...)
// lower and run in one call. ApplyPhaseRun (a subset-product table walked
// with the index) and Prob1 (a reduction) are different algorithms and
// keep their own loops.
//
// Numerics are pinned: each primitive evaluates complex products term by
// term and sums rows left to right in one fixed association, whatever the
// qubit positions, stride or worker split, so amplitudes are bit-identical
// from run to run and release to release (internal/core's golden digests
// hold them). Real fast paths drop exact-zero terms, which can turn -0 into
// +0 relative to the complex formula; probabilities, norms and histograms
// are unaffected.
//
// Convention: basis index bit i is qubit i (little-endian). For a multi-qubit
// gate, the first entry of Gate.Qubits is the least significant bit of the
// gate matrix's basis index, matching internal/gate.
package statevec

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"tqsim/internal/gate"
	"tqsim/internal/qmath"
	"tqsim/internal/rng"
)

// ParallelThreshold is the amplitude count above which gate kernels split
// across goroutines. Below it the goroutine fan-out costs more than it saves.
// It is a variable, not a constant, so benchmarks can ablate it.
var ParallelThreshold = 1 << 14

// MaxQubits caps dense registers: 2^30 amplitudes is 16 GiB, the edge of
// single-node feasibility. Engines with polynomial representations (the
// stabilizer tableau) go beyond it; callers route wide circuits there.
const MaxQubits = 30

// AmpBytes is the storage cost of one amplitude: one float64 per plane.
// Every admission-control and accounting formula in the repo derives from
// this constant (via StateBytes and core.DensePeakBytes) so the planner can
// never silently disagree with the allocator about the layout.
const AmpBytes = 16

// StateBytes returns the amplitude-array footprint of an n-qubit dense
// state under the current layout.
func StateBytes(n int) int64 { return AmpBytes << uint(n) }

// State is an n-qubit pure state in split re/im (structure-of-arrays) form.
type State struct {
	n  int
	re []float64
	im []float64
}

// alloc returns an all-zero n-qubit state. Both planes are carved from a
// single allocation so they stay adjacent in memory (one mmap region, and
// the Go allocator size-class-aligns large float64 slices; each plane is at
// least 8-byte aligned and page-aligned for register widths ≥ 17 qubits).
func alloc(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: unsupported qubit count %d", n))
	}
	dim := 1 << uint(n)
	buf := make([]float64, 2*dim)
	return &State{n: n, re: buf[:dim:dim], im: buf[dim:]}
}

// NewZero returns |0...0> on n qubits.
func NewZero(n int) *State {
	s := alloc(n)
	s.re[0] = 1
	return s
}

// NewBasis returns the computational basis state |index> on n qubits.
func NewBasis(n int, index uint64) *State {
	s := alloc(n)
	if index >= uint64(len(s.re)) {
		panic("statevec: basis index out of range")
	}
	s.re[index] = 1
	return s
}

// FromAmplitudes builds a state from an amplitude slice (split-copied into
// the SoA planes). The length must be a power of two.
func FromAmplitudes(amps []complex128) *State {
	n := log2len(len(amps), "amplitude length")
	s := alloc(n)
	for i, a := range amps {
		s.re[i] = real(a)
		s.im[i] = imag(a)
	}
	return s
}

func log2len(l int, what string) int {
	n := 0
	for (1 << uint(n)) < l {
		n++
	}
	if 1<<uint(n) != l || n == 0 {
		panic("statevec: " + what + " must be a power of two >= 2")
	}
	return n
}

// NumQubits returns n.
func (s *State) NumQubits() int { return s.n }

// Dim returns 2^n.
func (s *State) Dim() int { return len(s.re) }

// Components exposes the underlying re/im planes. Mutations write through
// to the state; callers that mutate are responsible for renormalization.
func (s *State) Components() (re, im []float64) { return s.re, s.im }

// Amplitudes materializes the state as a fresh []complex128 snapshot. It is
// an interleaving copy, not a view: mutating the returned slice does not
// affect the state (use SetAmplitudes, Components, or the kernel methods to
// mutate). Engines on hot paths should prefer Components.
func (s *State) Amplitudes() []complex128 {
	out := make([]complex128, len(s.re))
	for i := range out {
		out[i] = complex(s.re[i], s.im[i])
	}
	return out
}

// SetAmplitudes overwrites the state from an interleaved amplitude slice.
// The length must equal Dim.
func (s *State) SetAmplitudes(amps []complex128) {
	if len(amps) != len(s.re) {
		panic("statevec: SetAmplitudes length mismatch")
	}
	for i, a := range amps {
		s.re[i] = real(a)
		s.im[i] = imag(a)
	}
}

// Amplitude returns amplitude i.
func (s *State) Amplitude(i uint64) complex128 { return complex(s.re[i], s.im[i]) }

// SetAmplitude overwrites amplitude i.
func (s *State) SetAmplitude(i uint64, v complex128) {
	s.re[i] = real(v)
	s.im[i] = imag(v)
}

// ZeroAmplitudes clears every amplitude (the zero vector, not |0...0>).
func (s *State) ZeroAmplitudes() {
	clear(s.re)
	clear(s.im)
}

// ResetZero rewinds the state to |0...0> without reallocating.
func (s *State) ResetZero() {
	s.ZeroAmplitudes()
	s.re[0] = 1
}

// AddFrom accumulates src into s element-wise. Widths must match. Density-
// matrix Kraus sums use it to accumulate branch states without materializing
// interleaved copies.
func (s *State) AddFrom(src *State) {
	if s.n != src.n {
		panic("statevec: AddFrom width mismatch")
	}
	for i := range s.re {
		s.re[i] += src.re[i]
	}
	for i := range s.im {
		s.im[i] += src.im[i]
	}
}

// Bytes returns the memory footprint of the amplitude planes.
func (s *State) Bytes() int { return len(s.re) * AmpBytes }

// Clone returns a deep copy — the "state copy" whose cost TQSim profiles.
func (s *State) Clone() *State {
	c := alloc(s.n)
	copy(c.re, s.re)
	copy(c.im, s.im)
	return c
}

// CopyFrom overwrites s with src without reallocating. Widths must match.
func (s *State) CopyFrom(src *State) {
	if s.n != src.n {
		panic("statevec: CopyFrom width mismatch")
	}
	copy(s.re, src.re)
	copy(s.im, src.im)
}

// Norm returns the Euclidean norm of the state.
func (s *State) Norm() float64 {
	var acc float64
	re, im := s.re, s.im
	for i := range re {
		acc += re[i]*re[i] + im[i]*im[i]
	}
	return math.Sqrt(acc)
}

// Normalize rescales the state to unit norm. It panics on the zero vector.
func (s *State) Normalize() {
	nrm := s.Norm()
	if nrm == 0 {
		panic("statevec: cannot normalize zero state")
	}
	inv := 1 / nrm
	re, im := s.re, s.im
	for i := range re {
		re[i] *= inv
	}
	for i := range im {
		im[i] *= inv
	}
}

// Inner returns <s|t>.
func (s *State) Inner(t *State) complex128 {
	if s.n != t.n {
		panic("statevec: Inner width mismatch")
	}
	var accR, accI float64
	ar, ai, br, bi := s.re, s.im, t.re, t.im
	for i := range ar {
		// conj(a) * b, mirroring complex128 multiplication term order.
		nai := -ai[i]
		accR += ar[i]*br[i] - nai*bi[i]
		accI += ar[i]*bi[i] + nai*br[i]
	}
	return complex(accR, accI)
}

// FidelityWith returns |<s|t>|^2.
func (s *State) FidelityWith(t *State) float64 {
	v := s.Inner(t)
	return real(v)*real(v) + imag(v)*imag(v)
}

// Probabilities returns the measurement distribution over basis states.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.re))
	re, im := s.re, s.im
	for i := range p {
		p[i] = re[i]*re[i] + im[i]*im[i]
	}
	return p
}

// Prob returns the probability of basis outcome i.
func (s *State) Prob(i uint64) float64 {
	return s.re[i]*s.re[i] + s.im[i]*s.im[i]
}

// Prob1 returns the marginal probability that qubit q measures 1. Noise
// channels use it to compute quantum-jump probabilities analytically. Only
// the qubit-q=1 half-space is visited, in contiguous runs; partial sums are
// combined in deterministic chunk order (see parallelSum), so results are
// reproducible across runs regardless of worker scheduling.
func (s *State) Prob1(q int) float64 {
	half := len(s.re) / 2
	if half < ParallelThreshold {
		// Direct call on the serial path: damping channels invoke Prob1
		// once per gate, so the parallel path's closure allocation is worth
		// dodging on small registers.
		return s.prob1Range(q, 0, half)
	}
	return parallelSum(half, func(start, end int) float64 {
		return s.prob1Range(q, start, end)
	})
}

// prob1Range accumulates |amp|^2 over compressed qubit-q=1 subspace indices
// [start, end), visiting amplitudes in ascending order. The inner loop is
// unrolled 4-wide into a single accumulator (p += t0; p += t1; ...), which
// keeps the summation order identical to the scalar loop — jump decisions in
// the damping channels branch on this value, so its bits are pinned.
func (s *State) prob1Range(q, start, end int) float64 {
	mask := 1 << uint(q)
	re, im := s.re, s.im
	var p float64
	if q == 0 {
		for i := 2*start + 1; i < 2*end; i += 2 {
			p += re[i]*re[i] + im[i]*im[i]
		}
		return p
	}
	for j := start; j < end; {
		off := j & (mask - 1)
		base := (j>>uint(q))<<uint(q+1) | mask
		run := mask - off
		if run > end-j {
			run = end - j
		}
		lo := base + off
		rr := re[lo : lo+run]
		ri := im[lo : lo+run : lo+run]
		k := 0
		for ; k+4 <= len(rr); k += 4 {
			p += rr[k]*rr[k] + ri[k]*ri[k]
			p += rr[k+1]*rr[k+1] + ri[k+1]*ri[k+1]
			p += rr[k+2]*rr[k+2] + ri[k+2]*ri[k+2]
			p += rr[k+3]*rr[k+3] + ri[k+3]*ri[k+3]
		}
		for ; k < len(rr); k++ {
			p += rr[k]*rr[k] + ri[k]*ri[k]
		}
		j += run
	}
	return p
}

// Sample draws one basis outcome according to the state's distribution.
// The state must be normalized.
func (s *State) Sample(r *rng.RNG) uint64 {
	target := r.Float64()
	var acc float64
	re, im := s.re, s.im
	for i := range re {
		acc += re[i]*re[i] + im[i]*im[i]
		if target < acc {
			return uint64(i)
		}
	}
	return uint64(len(re) - 1)
}

// SampleMany draws k outcomes. For k large relative to the dimension it
// builds a cumulative table once and binary-searches per draw; for small k
// it falls back to linear scans.
func (s *State) SampleMany(k int, r *rng.RNG) []uint64 {
	out := make([]uint64, k)
	if k*s.Dim() <= 1<<22 && k < 64 {
		for i := range out {
			out[i] = s.Sample(r)
		}
		return out
	}
	re, im := s.re, s.im
	cum := make([]float64, len(re))
	var acc float64
	for i := range re {
		acc += re[i]*re[i] + im[i]*im[i]
		cum[i] = acc
	}
	for i := range out {
		target := r.Float64() * acc
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = uint64(lo)
	}
	return out
}

// The gate kernels (see the package comment). A lowered Kernel hands its
// stream primitive arithmetic progressions of bases (base, base+stride, ...,
// base+(n-1)*stride), adding its slot masks to each base. mixReal, mixCplx,
// scale, scaleReal and swapStreams each have one slice loop for stride 1 and
// one indexed loop otherwise; the 4x4 and 8x8 mixes gather and scatter by
// index at any stride.

const (
	// minRunBits: a progression should be able to run for 2^minRunBits
	// bases before a gate qubit interrupts it. A gate whose lowest qubit is
	// at least this high gets contiguous runs (stride 1). Otherwise the
	// gate qubits below a long enough stretch of free index bits are
	// absorbed into tiles, and a progression steps from tile to tile.
	minRunBits = 4
	// blockAmps bounds the span of a strided progression so that the passes
	// over one stretch of tiles (one per setting of the tiles' free bits)
	// find its cache lines still in L1.
	blockAmps = 1 << 10
)

// streamPlan is the base-index layout of one gate on one register width.
// Lower builds it once; every Run of the kernel walks it.
type streamPlan struct {
	groups    int    // 2^(n-k) bases: the length of the parallel loop
	runTiles  int    // consecutive tiles between interruptions by a gate qubit
	maxTiles  int    // longest progression handed to the body
	tileShift uint8  // log2 amplitudes per tile; 0 when runs are contiguous
	freeBits  uint8  // log2 bases per tile
	k, nLow   uint8  // gate qubits, and how many of them lie inside a tile
	pos       [3]int // the gate qubits, ascending
}

// checkQubit panics unless q names a qubit of an n-qubit register.
func checkQubit(n, q int) {
	if q < 0 || q >= n {
		panic(fmt.Sprintf("statevec: qubit %d out of range", q))
	}
}

// planStreams validates the gate qubits (in range, distinct, at most three)
// and lays out their bases on an n-qubit register.
func planStreams(n int, qubits []int) streamPlan {
	k := len(qubits)
	p := streamPlan{groups: 1 << uint(n) >> uint(k), maxTiles: 1 << uint(n), k: uint8(k)}
	if k < 1 || k > len(p.pos) {
		panic(fmt.Sprintf("statevec: unsupported arity %d", k))
	}
	for i, q := range qubits {
		checkQubit(n, q)
		j := i
		for ; j > 0 && p.pos[j-1] > q; j-- {
			p.pos[j] = p.pos[j-1]
		}
		if j > 0 && p.pos[j-1] == q {
			panic(fmt.Sprintf("statevec: qubit %d repeated", q))
		}
		p.pos[j] = q
	}
	// Progressions run along the lowest stretch of at least minRunBits free
	// index bits, or the longest stretch if none is that long; everything
	// below the stretch is the tile.
	longest := -1
	for i, from := 0, 0; i <= k && longest < minRunBits; i++ {
		to := n
		if i < k {
			to = p.pos[i]
		}
		if to-from > longest {
			longest, p.tileShift, p.nLow = to-from, uint8(from), uint8(i)
		}
		from = to + 1
	}
	p.freeBits = p.tileShift - p.nLow
	p.runTiles = 1 << uint(longest)
	if p.tileShift > 0 {
		p.maxTiles = max(1, blockAmps>>p.tileShift)
	}
	return p
}

// walk hands body the progressions (base, n, stride) that together visit
// every index of groups [start, end) whose gate bits are clear, each once.
// Parallel chunks cut the group range anywhere; a tile belongs to the chunk
// its first group falls in, so chunks still partition the tiles.
func (p *streamPlan) walk(start, end int, body func(base, n, stride int)) {
	perTile, stride := 1<<p.freeBits, 1<<p.tileShift
	first, last := (start+perTile-1)>>p.freeBits, (end+perTile-1)>>p.freeBits
	low, high := p.pos[:p.nLow], p.pos[p.nLow:p.k]
	for t := first; t < last; {
		n := min(p.runTiles-t&(p.runTiles-1), last-t, p.maxTiles)
		base := insertZeroBits(t<<p.tileShift, high)
		body(base, n, stride)
		for f := 1; f < perTile; f++ {
			body(base|insertZeroBits(f, low), n, stride)
		}
		t += n
	}
}

// insertZeroBits expands i by inserting zero bits at the (sorted ascending)
// positions given, producing an index with those bits clear.
func insertZeroBits(i int, sortedPositions []int) int {
	for _, p := range sortedPositions {
		i = (i>>uint(p))<<uint(p+1) | i&(1<<uint(p)-1)
	}
	return i
}

// mixReal applies the real 2x2 matrix to n amplitude pairs of one plane,
// (p[i0], p[i1]) and onwards in steps of stride.
func mixReal(p []float64, i0, i1, n, stride int, m00, m01, m10, m11 float64) {
	if stride == 1 {
		lo, hi := p[i0:i0+n], p[i1:i1+n]
		hi = hi[:len(lo)]
		for j := range lo {
			a, b := lo[j], hi[j]
			lo[j] = m00*a + m01*b
			hi[j] = m10*a + m11*b
		}
		return
	}
	for ; n > 0; n-- {
		a, b := p[i0], p[i1]
		p[i0] = m00*a + m01*b
		p[i1] = m10*a + m11*b
		i0 += stride
		i1 += stride
	}
}

// mixCplx applies the complex 2x2 matrix to n amplitude pairs. Each output
// is (m0·a0) + (m1·a1) with the complex products expanded term by term; the
// association is pinned.
func mixCplx(re, im []float64, i0, i1, n, stride int, m00, m01, m10, m11 complex128) {
	m00r, m00i := real(m00), imag(m00)
	m01r, m01i := real(m01), imag(m01)
	m10r, m10i := real(m10), imag(m10)
	m11r, m11i := real(m11), imag(m11)
	if stride == 1 {
		rlo, ilo := re[i0:i0+n], im[i0:i0+n]
		rhi, ihi := re[i1:i1+n], im[i1:i1+n]
		ilo, rhi, ihi = ilo[:len(rlo)], rhi[:len(rlo)], ihi[:len(rlo)]
		for j := range rlo {
			a0r, a0i := rlo[j], ilo[j]
			a1r, a1i := rhi[j], ihi[j]
			rlo[j] = (m00r*a0r - m00i*a0i) + (m01r*a1r - m01i*a1i)
			ilo[j] = (m00r*a0i + m00i*a0r) + (m01r*a1i + m01i*a1r)
			rhi[j] = (m10r*a0r - m10i*a0i) + (m11r*a1r - m11i*a1i)
			ihi[j] = (m10r*a0i + m10i*a0r) + (m11r*a1i + m11i*a1r)
		}
		return
	}
	for ; n > 0; n-- {
		a0r, a0i := re[i0], im[i0]
		a1r, a1i := re[i1], im[i1]
		re[i0] = (m00r*a0r - m00i*a0i) + (m01r*a1r - m01i*a1i)
		im[i0] = (m00r*a0i + m00i*a0r) + (m01r*a1i + m01i*a1r)
		re[i1] = (m10r*a0r - m10i*a0i) + (m11r*a1r - m11i*a1i)
		im[i1] = (m10r*a0i + m10i*a0r) + (m11r*a1i + m11i*a1r)
		i0 += stride
		i1 += stride
	}
}

// scale multiplies n amplitudes from index i by the complex scalar (dr, di).
func scale(re, im []float64, i, n, stride int, dr, di float64) {
	if stride == 1 {
		sr, si := re[i:i+n], im[i:i+n]
		si = si[:len(sr)]
		for j := range sr {
			r, v := sr[j], si[j]
			sr[j] = r*dr - v*di
			si[j] = r*di + v*dr
		}
		return
	}
	for ; n > 0; n-- {
		r, v := re[i], im[i]
		re[i] = r*dr - v*di
		im[i] = r*di + v*dr
		i += stride
	}
}

// scaleReal multiplies n amplitudes from index i by the real scalar d: each
// plane scales independently.
func scaleReal(re, im []float64, i, n, stride int, d float64) {
	if stride == 1 {
		sr, si := re[i:i+n], im[i:i+n]
		for j := range sr {
			sr[j] *= d
		}
		for j := range si {
			si[j] *= d
		}
		return
	}
	for ; n > 0; n-- {
		re[i] *= d
		im[i] *= d
		i += stride
	}
}

// scaleBy picks the real scalar path when d has no imaginary part.
func scaleBy(re, im []float64, i, n, stride int, d complex128) {
	if imag(d) == 0 {
		scaleReal(re, im, i, n, stride, real(d))
		return
	}
	scale(re, im, i, n, stride, real(d), imag(d))
}

// swapStreams exchanges n elements of one plane between the streams that
// start at i0 and i1.
func swapStreams(p []float64, i0, i1, n, stride int) {
	if stride == 1 {
		a, b := p[i0:i0+n], p[i1:i1+n]
		b = b[:len(a)]
		for j := range a {
			a[j], b[j] = b[j], a[j]
		}
		return
	}
	for ; n > 0; n-- {
		p[i0], p[i1] = p[i1], p[i0]
		i0 += stride
		i1 += stride
	}
}

// ApplyPhaseRun applies a fused run of controlled-phase gates sharing one
// anchor qubit in a single pass: amplitude i with the anchor bit set is
// multiplied by the product of phases[k] over every k whose qubits[k] bit is
// also set in i. This is the cache-blocked fusion path for QFT-style CP
// chains — k diagonal gates for one sweep over the anchor half-space instead
// of k quarter-space sweeps. Phases multiply in slice order, so a run of one
// gate is bit-identical to ApplyCPhase(anchor, qubits[0], phases[0]).
func (s *State) ApplyPhaseRun(anchor int, qubits []int, phases []complex128) {
	if len(qubits) != len(phases) {
		panic("statevec: ApplyPhaseRun qubits/phases length mismatch")
	}
	if len(qubits) == 0 {
		return
	}
	checkQubit(s.n, anchor)
	for _, q := range qubits {
		if q < 0 || q >= s.n || q == anchor {
			panic(fmt.Sprintf("statevec: bad phase-run qubit %d", q))
		}
	}
	// Runs wider than the table bound split into chunks; each chunk is one
	// pass, which still beats per-gate quarter-space sweeps. The bound also
	// shrinks with the register so the 2^k table build stays a vanishing
	// fraction of the 2^(n-1) sweep it serves.
	const maxPhaseTableBits = 12
	maxBits := maxPhaseTableBits
	if nb := s.n - 8; nb < maxBits {
		maxBits = nb
	}
	if maxBits < 1 {
		maxBits = 1
	}
	if len(qubits) > maxBits {
		for start := 0; start < len(qubits); start += maxBits {
			end := start + maxBits
			if end > len(qubits) {
				end = len(qubits)
			}
			s.ApplyPhaseRun(anchor, qubits[start:end], phases[start:end])
		}
		return
	}
	// Product table over gate subsets: tr/ti[key] is the product of
	// phases[j] over the set bits j of key, accumulated in ascending slice
	// order (table[m] = table[m minus high bit] * phases[highBit]), so
	// table[1<<j] == phases[j] exactly and the per-amplitude work drops to
	// a key gather plus one complex multiply.
	k := len(qubits)
	tr := make([]float64, 1<<uint(k))
	ti := make([]float64, 1<<uint(k))
	tr[0] = 1
	for m := 1; m < len(tr); m++ {
		hb := bits.Len(uint(m)) - 1
		rest := m &^ (1 << uint(hb))
		pr, pi := real(phases[hb]), imag(phases[hb])
		tr[m] = tr[rest]*pr - ti[rest]*pi
		ti[m] = tr[rest]*pi + ti[rest]*pr
	}
	// Gate-qubit support ascending (anchor excluded — the sweep below only
	// ever visits the anchor-set half, so the anchor never enters the key).
	// A qubit can carry several gates of the run (the same pair repeated),
	// so each position maps to a mask of product-table bits.
	otherMask := make([]int, s.n)
	for j, q := range qubits {
		otherMask[q] |= 1 << uint(j)
	}
	others := make([]int, 0, k)
	for q := 0; q < s.n; q++ {
		if otherMask[q] != 0 {
			others = append(others, q)
		}
	}
	// Re-key the product table onto sorted support positions (folding
	// duplicate-qubit bits once), so the sweep indexes a dense table whose
	// bit j is support position j. Entry 0 is the exact identity.
	ptr := make([]float64, 1<<uint(len(others)))
	pti := make([]float64, len(ptr))
	for m := range ptr {
		key := 0
		for slot, q := range others {
			if m>>uint(slot)&1 == 1 {
				key |= otherMask[q]
			}
		}
		ptr[m], pti[m] = tr[key], ti[key]
	}
	// Two gratings partition the index space: aligned stretches of
	// 2^anchor indices alternate anchor-clear (untouched) and anchor-set
	// (scaled), and aligned blocks of 2^qmin indices each map to one table
	// key (the support bits are constant across a block). The key walks
	// with the block counter: an increment flips exactly the bit prefix
	// [0, TrailingZeros(blk+1)], so the delta is a prefix-XOR of per-bit
	// contributions — amortized O(1) per block instead of a k-bit gather
	// per amplitude. One extra adv slot because the last increment flips
	// the bit just past the counter (a no-op contribution).
	qmin := others[0]
	blockLen := 1 << uint(qmin)
	amask := 1 << uint(anchor)
	adv := make([]int, s.n-qmin+1)
	for slot, q := range others {
		for t := q - qmin; t < len(adv); t++ {
			adv[t] ^= 1 << uint(slot)
		}
	}
	gatherKey := func(blk int) int {
		key := 0
		for slot, q := range others {
			key |= int(uint(blk)>>uint(q-qmin)&1) << uint(slot)
		}
		return key
	}
	re, im := s.re, s.im
	if anchor < qmin {
		// Blocks contain whole anchored stretches: per block, scale every
		// other stretch of 2^anchor amplitudes with the block's phase.
		nBlocks := len(re) >> uint(qmin)
		parallelFor(nBlocks, func(start, end int) {
			key := gatherKey(start)
			for blk := start; blk < end; blk++ {
				if key != 0 {
					vr, vi := ptr[key], pti[key]
					base := blk << uint(qmin)
					for off := amask; off < blockLen; off += 2 * amask {
						if amask < 16 {
							// Short stretches: an inlined scale beats the
							// call overhead of the stream primitives.
							for i := base + off; i < base+off+amask; i++ {
								r, ii := re[i], im[i]
								re[i] = r*vr - ii*vi
								im[i] = r*vi + ii*vr
							}
						} else {
							scaleBy(re, im, base+off, amask, 1, complex(vr, vi))
						}
					}
				}
				key ^= adv[bits.TrailingZeros(uint(blk+1))]
			}
		})
		return
	}
	// Anchored stretches contain whole blocks (the QFT row shape: the
	// anchor above its controls). Enumerate only the anchor-set half.
	if qmin == 0 {
		// One amplitude per block: the hottest shape (a gate qubit at bit
		// 0 defeats blocking). Walk aligned windows of up to 256
		// amplitudes: the window-base key re-gathers once per window and
		// the low window bits' contribution comes from a LUT, so the
		// inner loop is one load + XOR per amplitude with no carry chain.
		wbits := 8
		if anchor < wbits {
			wbits = anchor
		}
		wlen := 1 << uint(wbits)
		lowLUT := make([]int, wlen)
		for d := 1; d < wlen; d++ {
			t := bits.TrailingZeros(uint(d))
			contrib := adv[t]
			if t > 0 {
				contrib ^= adv[t-1]
			}
			lowLUT[d] = lowLUT[d&(d-1)] ^ contrib
		}
		half := len(re) / 2
		parallelFor(half, func(start, end int) {
			for c := start; c < end; {
				// Insert a set anchor bit to map the anchored-amp counter
				// to its index; windows never cross a stretch boundary
				// (wlen <= 2^anchor), so i advances with c inside one.
				i := (c>>uint(anchor))<<uint(anchor+1) | c&(amask-1) | amask
				wEnd := (c | (wlen - 1)) + 1
				if wEnd > end {
					wEnd = end
				}
				keyW := gatherKey(i &^ (wlen - 1))
				for ; c < wEnd; c, i = c+1, i+1 {
					key := keyW ^ lowLUT[i&(wlen-1)]
					if key != 0 {
						vr, vi := ptr[key], pti[key]
						r, ii := re[i], im[i]
						re[i] = r*vr - ii*vi
						im[i] = r*vi + ii*vr
					}
				}
			}
		})
		return
	}
	// qmin > 0: consecutive runs of sb = 2^(anchor-qmin) blocks; the key
	// re-gathers at each stretch start (amortized over the stretch) and
	// walks with the prefix-XOR advance inside it.
	sb := amask >> uint(qmin)
	lsb := uint(bits.TrailingZeros(uint(sb)))
	anchoredBlocks := len(re) >> uint(qmin+1)
	parallelFor(anchoredBlocks, func(start, end int) {
		// j counts anchored blocks; the containing stretch is j>>lsb, and
		// the global block index interleaves a set anchor bit above it.
		gblk := func(j int) int {
			return (j>>lsb)<<(lsb+1) | sb | j&(sb-1)
		}
		blk := gblk(start)
		key := gatherKey(blk)
		for j := start; j < end; j++ {
			if key != 0 {
				vr, vi := ptr[key], pti[key]
				base := blk << uint(qmin)
				if blockLen < 16 {
					for i := base; i < base+blockLen; i++ {
						r, ii := re[i], im[i]
						re[i] = r*vr - ii*vi
						im[i] = r*vi + ii*vr
					}
				} else {
					scaleBy(re, im, base, blockLen, 1, complex(vr, vi))
				}
			}
			if j&(sb-1) == sb-1 {
				blk = gblk(j + 1)
				key = gatherKey(blk)
			} else {
				blk++
				key ^= adv[bits.TrailingZeros(uint(blk))]
			}
		}
	})
}

// mix4Real applies the real 4x4 matrix m (row-major) to one plane's slot
// streams at base, base|m0, base|m1 and base|m0|m1. Rows sum left to right,
// ((t0+t1)+t2)+t3; the association is pinned.
func mix4Real(p []float64, base, m0, m1, n, stride int, m *[16]float64) {
	for i := base; n > 0; n, i = n-1, i+stride {
		i1, i2, i3 := i|m0, i|m1, i|m0|m1
		a0, a1, a2, a3 := p[i], p[i1], p[i2], p[i3]
		p[i] = ((m[0]*a0 + m[1]*a1) + m[2]*a2) + m[3]*a3
		p[i1] = ((m[4]*a0 + m[5]*a1) + m[6]*a2) + m[7]*a3
		p[i2] = ((m[8]*a0 + m[9]*a1) + m[10]*a2) + m[11]*a3
		p[i3] = ((m[12]*a0 + m[13]*a1) + m[14]*a2) + m[15]*a3
	}
}

// mix4Cplx is the complex 4x4 mix over the same four slot streams, each
// complex product expanded term by term and the row summed ((t0+t1)+t2)+t3.
func mix4Cplx(re, im []float64, base, m0, m1, n, stride int, mr, mi *[16]float64) {
	for i := base; n > 0; n, i = n-1, i+stride {
		i1, i2, i3 := i|m0, i|m1, i|m0|m1
		a0r, a0i := re[i], im[i]
		a1r, a1i := re[i1], im[i1]
		a2r, a2i := re[i2], im[i2]
		a3r, a3i := re[i3], im[i3]
		re[i] = ((mr[0]*a0r - mi[0]*a0i) + (mr[1]*a1r - mi[1]*a1i) + (mr[2]*a2r - mi[2]*a2i)) + (mr[3]*a3r - mi[3]*a3i)
		im[i] = ((mr[0]*a0i + mi[0]*a0r) + (mr[1]*a1i + mi[1]*a1r) + (mr[2]*a2i + mi[2]*a2r)) + (mr[3]*a3i + mi[3]*a3r)
		re[i1] = ((mr[4]*a0r - mi[4]*a0i) + (mr[5]*a1r - mi[5]*a1i) + (mr[6]*a2r - mi[6]*a2i)) + (mr[7]*a3r - mi[7]*a3i)
		im[i1] = ((mr[4]*a0i + mi[4]*a0r) + (mr[5]*a1i + mi[5]*a1r) + (mr[6]*a2i + mi[6]*a2r)) + (mr[7]*a3i + mi[7]*a3r)
		re[i2] = ((mr[8]*a0r - mi[8]*a0i) + (mr[9]*a1r - mi[9]*a1i) + (mr[10]*a2r - mi[10]*a2i)) + (mr[11]*a3r - mi[11]*a3i)
		im[i2] = ((mr[8]*a0i + mi[8]*a0r) + (mr[9]*a1i + mi[9]*a1r) + (mr[10]*a2i + mi[10]*a2r)) + (mr[11]*a3i + mi[11]*a3r)
		re[i3] = ((mr[12]*a0r - mi[12]*a0i) + (mr[13]*a1r - mi[13]*a1i) + (mr[14]*a2r - mi[14]*a2i)) + (mr[15]*a3r - mi[15]*a3i)
		im[i3] = ((mr[12]*a0i + mi[12]*a0r) + (mr[13]*a1i + mi[13]*a1r) + (mr[14]*a2i + mi[14]*a2r)) + (mr[15]*a3i + mi[15]*a3r)
	}
}

// splitMatrix separates a gate matrix's entries into real and imaginary
// parts and reports whether every imaginary part is zero.
func splitMatrix(data []complex128, mr, mi []float64) (allReal bool) {
	allReal = true
	for i, v := range data {
		mr[i], mi[i] = real(v), imag(v)
		if mi[i] != 0 {
			allReal = false
		}
	}
	return allReal
}

// mix8 applies the 8x8 matrix to the eight slot streams at base|offs[b]:
// gather, multiply, scatter. Row sums accumulate left to right from zero;
// the association is pinned. A matrix with no imaginary part (mi == nil)
// skips half the products.
func mix8(re, im []float64, base, n, stride int, offs *[8]int, mr, mi *[64]float64) {
	for i := base; n > 0; n, i = n-1, i+stride {
		var vr, vi [8]float64
		for b, off := range offs {
			vr[b], vi[b] = re[i|off], im[i|off]
		}
		for row, off := range offs {
			var ar, ai float64
			if mi == nil {
				for col, m := range mr[row*8 : row*8+8] {
					ar += m * vr[col]
					ai += m * vi[col]
				}
			} else {
				for col, m := range mr[row*8 : row*8+8] {
					ar += m*vr[col] - mi[row*8+col]*vi[col]
					ai += m*vi[col] + mi[row*8+col]*vr[col]
				}
			}
			re[i|off], im[i|off] = ar, ai
		}
	}
}

// kernelOp names the stream primitive a lowered kernel calls per
// progression.
type kernelOp uint8

const (
	opIdentity  kernelOp = iota // nothing: the identity, diag(1, 1), a diagonal of ones
	opSwap                      // swapStreams between slots offs[0] and offs[1]
	opScaleReal                 // scaleReal of slot offs[0] by real(c[0])
	opScale                     // scale of slots offs[j] by c[j], j < scales
	opMixReal                   // mixReal of slots 0 and offs[0] by real(c), both planes
	opMixCplx                   // mixCplx of slots 0 and offs[0] by c
	opMix4Real                  // mix4Real over masks offs[0], offs[1] by m4.r, both planes
	opMix4Cplx                  // mix4Cplx over masks offs[0], offs[1] by m4
	opMix8                      // mix8 by m8
)

// Kernel is a gate lowered for one register width: its qubits validated and
// sorted into a streamPlan, its slot masks, and its arithmetic constants —
// diagonal phases, real or complex 2x2 entries, and split 4x4 or 8x8
// matrices, held by reference so that a Kernel stays small. Lower builds
// one; State.Run applies it to any state of that width, as often as needed.
// A Kernel is read-only once built and safe to run from several goroutines.
type Kernel struct {
	n      int
	op     kernelOp
	scales uint8 // slots opScale multiplies
	plan   streamPlan
	offs   [4]int        // slot masks the primitive adds to each base
	c      [4]complex128 // 2x2 entries, row-major (opMix*), or slot factors (opScale*)
	m4     *mat4
	m8     *mat8
}

// mat4 is a 4x4 gate matrix split into real and imaginary parts, row-major.
type mat4 struct{ r, i [16]float64 }

// mat8 is an 8x8 gate matrix split into real and imaginary parts, with the
// basis-slot offsets mix8 gathers from; mi is nil when the matrix is real.
type mat8 struct {
	offs [8]int
	r, i [64]float64
	mi   *[64]float64
}

// The T and T† phases, e^{±iπ/4}.
var (
	tPhase   = cmplx.Exp(1i * math.Pi / 4)
	tdgPhase = cmplx.Exp(-1i * math.Pi / 4)
)

// Lower binds gate g to an n-qubit register: every check and every constant
// a gate application needs is computed here, once, so that State.Run does
// nothing but the arithmetic. The named kinds with a cheaper form than their
// matrix take it; every other gate mixes by its matrix. It panics on qubits
// outside the register, repeated qubits and arities other than 1 to 3.
func Lower(n int, g *gate.Gate) (k Kernel) {
	q := g.Qubits
	switch g.Kind {
	case gate.KindI:
		k.diag1(n, q[0], 1, 1)
	case gate.KindX:
		k.swap(n, 0, 1<<uint(q[0]), q[0])
	case gate.KindZ:
		k.diag1(n, q[0], 1, -1)
	case gate.KindS:
		k.diag1(n, q[0], 1, 1i)
	case gate.KindSdg:
		k.diag1(n, q[0], 1, -1i)
	case gate.KindT:
		k.diag1(n, q[0], 1, tPhase)
	case gate.KindTdg:
		k.diag1(n, q[0], 1, tdgPhase)
	case gate.KindP:
		k.diag1(n, q[0], 1, cmplx.Exp(complex(0, g.Params[0])))
	case gate.KindRZ:
		t := g.Params[0] / 2
		k.diag1(n, q[0], cmplx.Exp(complex(0, -t)), cmplx.Exp(complex(0, t)))
	case gate.KindCX:
		// Within the control=1 quarter the target pair trades places.
		on := 1 << uint(q[0])
		k.swap(n, on, on|1<<uint(q[1]), q[0], q[1])
	case gate.KindCZ:
		k.cphase(n, q[0], q[1], -1)
	case gate.KindCP:
		k.cphase(n, q[0], q[1], cmplx.Exp(complex(0, g.Params[0])))
	case gate.KindSWAP:
		// The 01 and 10 quarters trade places; 00 and 11 are untouched.
		k.swap(n, 1<<uint(q[0]), 1<<uint(q[1]), q[0], q[1])
	default:
		switch len(q) {
		case 1:
			k.mix1(n, q[0], g.Matrix())
		case 2:
			k.mix2(n, q[0], q[1], g.Matrix())
		case 3:
			k.mix3(n, q[0], q[1], q[2], g.Matrix())
		default:
			panic(fmt.Sprintf("statevec: unsupported arity %d", len(q)))
		}
	}
	return k
}

// bind sets the kernel's width and primitive and lays out its progressions
// over the gate qubits, validating them.
func (k *Kernel) bind(n int, op kernelOp, qubits ...int) {
	k.n, k.op, k.plan = n, op, planStreams(n, qubits)
}

// swap: the amplitudes in slots a and b trade places.
func (k *Kernel) swap(n, a, b int, qubits ...int) {
	k.bind(n, opSwap, qubits...)
	k.offs[0], k.offs[1] = a, b
}

// diag1 multiplies the qubit-t zero and one amplitudes by d0 and d1. An
// identity half is skipped entirely (phase gates touch dim/2 amplitudes, not
// dim), and a lone real scalar takes the real path; when both halves scale,
// both are multiplied as complex numbers in one pass.
func (k *Kernel) diag1(n, t int, d0, d1 complex128) {
	switch {
	case d0 == 1 && d1 == 1:
		checkQubit(n, t)
		k.n, k.op = n, opIdentity
	case d0 == 1:
		k.scaleBy(n, 1<<uint(t), d1, t)
	case d1 == 1:
		k.scaleBy(n, 0, d0, t)
	default:
		k.bind(n, opScale, t)
		k.scales = 2
		k.offs[1] = 1 << uint(t)
		k.c[0], k.c[1] = d0, d1
	}
}

// scaleBy multiplies slot off by d, on the real path when d has no
// imaginary part.
func (k *Kernel) scaleBy(n, off int, d complex128, qubits ...int) {
	op := opScale
	if imag(d) == 0 {
		op = opScaleReal
	}
	k.bind(n, op, qubits...)
	k.scales = 1
	k.offs[0], k.c[0] = off, d
}

// cphase multiplies the amplitudes with both the qubit-a and qubit-b bits
// set by phase: a quarter of the index space.
func (k *Kernel) cphase(n, a, b int, phase complex128) {
	k.scaleBy(n, 1<<uint(a)|1<<uint(b), phase, a, b)
}

// diag2 multiplies each quarter of the (q0, q1) index space by its entry of
// d, q0 the low bit of the entry index; unit entries leave their quarter
// untouched.
func (k *Kernel) diag2(n, q0, q1 int, d [4]complex128) {
	k.bind(n, opScale, q0, q1)
	slots := [4]int{0, 1 << uint(q0), 1 << uint(q1), 1<<uint(q0) | 1<<uint(q1)}
	for sel, off := range slots {
		if d[sel] != 1 {
			k.offs[k.scales], k.c[k.scales] = off, d[sel]
			k.scales++
		}
	}
	if k.scales == 0 {
		k.op = opIdentity
	}
}

// mix1 mixes the (i0, i0|2^t) amplitude pairs by the 2x2 matrix m. A matrix
// with no imaginary part (H, RY, fused real products) transforms the re and
// im planes independently (re' = M·re, im' = M·im) at half the arithmetic of
// the complex mix.
func (k *Kernel) mix1(n, t int, m qmath.Matrix) {
	if m.N != 2 {
		panic("statevec: Apply1Q needs a 2x2 matrix")
	}
	op := opMixCplx
	if imag(m.Data[0]) == 0 && imag(m.Data[1]) == 0 && imag(m.Data[2]) == 0 && imag(m.Data[3]) == 0 {
		op = opMixReal
	}
	k.bind(n, op, t)
	k.offs[0] = 1 << uint(t)
	copy(k.c[:], m.Data)
}

// mix2 mixes the four slot streams of (q0, q1) by the 4x4 matrix m, q0 the
// low bit of the matrix basis index.
func (k *Kernel) mix2(n, q0, q1 int, m qmath.Matrix) {
	if m.N != 4 {
		panic("statevec: Apply2Q needs a 4x4 matrix")
	}
	m4 := new(mat4)
	op := opMix4Cplx
	if splitMatrix(m.Data, m4.r[:], m4.i[:]) {
		op = opMix4Real
	}
	k.bind(n, op, q0, q1)
	k.offs[0], k.offs[1], k.m4 = 1<<uint(q0), 1<<uint(q1), m4
}

// mix3 mixes the eight slot streams of (q0, q1, q2) by the 8x8 matrix m, q0
// the low bit.
func (k *Kernel) mix3(n, q0, q1, q2 int, m qmath.Matrix) {
	if m.N != 8 {
		panic("statevec: Apply3Q needs an 8x8 matrix")
	}
	m8 := new(mat8)
	if !splitMatrix(m.Data, m8.r[:], m8.i[:]) {
		m8.mi = &m8.i
	}
	// Basis-slot offsets: bit k of the slot selects qubit k's mask.
	for b := range m8.offs {
		m8.offs[b] = b&1<<uint(q0) | b>>1&1<<uint(q1) | b>>2&1<<uint(q2)
	}
	k.bind(n, opMix8, q0, q1, q2)
	k.m8 = m8
}

// run hands the kernel's primitive every progression of groups [start, end)
// through streamPlan.walk. The primitive and its constants are bound into
// the walk's body once per call, so each progression costs one call of a
// small body holding the constants as values (a switch per progression
// measured 5-15 % slower on short progressions); the body does not escape,
// so nothing is allocated.
func (k *Kernel) run(re, im []float64, start, end int) {
	p := &k.plan
	switch k.op {
	case opSwap:
		a, b := k.offs[0], k.offs[1]
		p.walk(start, end, func(base, n, stride int) {
			swapStreams(re, base|a, base|b, n, stride)
			swapStreams(im, base|a, base|b, n, stride)
		})
	case opScaleReal:
		off, d := k.offs[0], real(k.c[0])
		p.walk(start, end, func(base, n, stride int) {
			scaleReal(re, im, base|off, n, stride, d)
		})
	case opScale:
		// One or two slots (the phase gates, CP, RZ) are nearly every scale
		// kernel. Their bodies hold the factors as values: a loop over the
		// slots cost 7-22 % more per short progression.
		o0, o1, d0, d1 := k.offs[0], k.offs[1], k.c[0], k.c[1]
		switch k.scales {
		case 1:
			p.walk(start, end, func(base, n, stride int) {
				scale(re, im, base|o0, n, stride, real(d0), imag(d0))
			})
		case 2:
			p.walk(start, end, func(base, n, stride int) {
				scale(re, im, base|o0, n, stride, real(d0), imag(d0))
				scale(re, im, base|o1, n, stride, real(d1), imag(d1))
			})
		default:
			offs, c := k.offs[:k.scales], k.c[:k.scales]
			p.walk(start, end, func(base, n, stride int) {
				for j, off := range offs {
					scale(re, im, base|off, n, stride, real(c[j]), imag(c[j]))
				}
			})
		}
	case opMixReal:
		off, c := k.offs[0], &k.c
		m00, m01, m10, m11 := real(c[0]), real(c[1]), real(c[2]), real(c[3])
		p.walk(start, end, func(base, n, stride int) {
			mixReal(re, base, base|off, n, stride, m00, m01, m10, m11)
			mixReal(im, base, base|off, n, stride, m00, m01, m10, m11)
		})
	case opMixCplx:
		off, c := k.offs[0], &k.c
		m00, m01, m10, m11 := c[0], c[1], c[2], c[3]
		p.walk(start, end, func(base, n, stride int) {
			mixCplx(re, im, base, base|off, n, stride, m00, m01, m10, m11)
		})
	case opMix4Real:
		m0, m1, m := k.offs[0], k.offs[1], &k.m4.r
		p.walk(start, end, func(base, n, stride int) {
			mix4Real(re, base, m0, m1, n, stride, m)
			mix4Real(im, base, m0, m1, n, stride, m)
		})
	case opMix4Cplx:
		m0, m1, m4 := k.offs[0], k.offs[1], k.m4
		p.walk(start, end, func(base, n, stride int) {
			mix4Cplx(re, im, base, m0, m1, n, stride, &m4.r, &m4.i)
		})
	case opMix8:
		m8 := k.m8
		p.walk(start, end, func(base, n, stride int) {
			mix8(re, im, base, n, stride, &m8.offs, &m8.r, m8.mi)
		})
	}
}

// Run applies a kernel lowered for the state's width; a kernel of another
// width panics. It owns the serial-or-pooled decision for every gate: below
// ParallelThreshold groups the calling goroutine walks every progression and
// nothing is allocated; above it the pool's workers claim chunks of the group
// range (streams of different chunks are disjoint).
func (s *State) Run(k *Kernel) {
	if k.n != s.n {
		panic(fmt.Sprintf("statevec: kernel lowered for %d qubits run on %d", k.n, s.n))
	}
	if k.op == opIdentity {
		return
	}
	if k.plan.groups < ParallelThreshold {
		k.run(s.re, s.im, 0, k.plan.groups)
		return
	}
	// The pooled job outlives this frame's view of k, so it takes a copy:
	// the caller's kernel stays where the caller put it.
	kc, re, im := *k, s.re, s.im
	getPool().run(kc.plan.groups, func(_, start, end int) { kc.run(re, im, start, end) })
}

// Apply applies a gate instance: Lower, then Run.
func (s *State) Apply(g gate.Gate) {
	k := Lower(s.n, &g)
	s.Run(&k)
}

// ApplyAll applies every gate of the circuit in order.
func (s *State) ApplyAll(gs []gate.Gate) {
	for i := range gs {
		k := Lower(s.n, &gs[i])
		s.Run(&k)
	}
}

// The per-kind entry points below serve callers that hold no gate.Gate —
// the noise channels, the fusion backend's fused blocks, the density-matrix
// engine. Each builds its kernel exactly as Lower does and runs it.

// ApplyX applies Pauli-X to qubit t: the pair amplitudes trade places.
func (s *State) ApplyX(t int) {
	var k Kernel
	k.swap(s.n, 0, 1<<uint(t), t)
	s.Run(&k)
}

// ApplyDiag1Q multiplies the qubit-t zero and one amplitudes by d0 and d1 —
// the phase gates, and the phase flips, projectors and damping no-jump
// operators of the noise channels, without building a matrix.
func (s *State) ApplyDiag1Q(t int, d0, d1 complex128) {
	var k Kernel
	k.diag1(s.n, t, d0, d1)
	s.Run(&k)
}

// ApplyCPhase multiplies amplitudes with both the qubit-a and qubit-b bits
// set by phase — the CZ/CP kernel, which touches only that quarter of the
// index space.
func (s *State) ApplyCPhase(a, b int, phase complex128) {
	var k Kernel
	k.cphase(s.n, a, b, phase)
	s.Run(&k)
}

// ApplyDiag2Q applies the diagonal 4x4 diag(d00, d01, d10, d11) to qubits
// (q0, q1), q0 the low bit of the diagonal's basis index. Fused same-pair
// blocks whose product collapses to a diagonal (e.g. the CX·RZ·CX
// ZZ-interaction pattern) route here instead of the dense kernel. Unit
// entries leave their quarter of the index space untouched.
func (s *State) ApplyDiag2Q(q0, q1 int, d00, d01, d10, d11 complex128) {
	var k Kernel
	k.diag2(s.n, q0, q1, [4]complex128{d00, d01, d10, d11})
	s.Run(&k)
}

// Apply1Q applies the 2x2 matrix m to qubit t, mixing the dim/2 (i0, i0|2^t)
// amplitude pairs.
func (s *State) Apply1Q(t int, m qmath.Matrix) {
	var k Kernel
	k.mix1(s.n, t, m)
	s.Run(&k)
}

// Apply2Q applies the 4x4 matrix m to qubits (q0, q1), q0 the low bit of
// the matrix basis index.
func (s *State) Apply2Q(q0, q1 int, m qmath.Matrix) {
	var k Kernel
	k.mix2(s.n, q0, q1, m)
	s.Run(&k)
}

// Apply3Q applies the 8x8 matrix m to qubits (q0, q1, q2), q0 the low bit.
func (s *State) Apply3Q(q0, q1, q2 int, m qmath.Matrix) {
	var k Kernel
	k.mix3(s.n, q0, q1, q2, m)
	s.Run(&k)
}

// Marginal returns the measurement distribution over the listed qubits
// (ascending significance: bit i of the returned index is qubits[i]),
// tracing out the rest. Useful for workloads whose answer lives in a
// sub-register, e.g. Bernstein-Vazirani's data qubits next to its ancilla.
func (s *State) Marginal(qubits []int) []float64 {
	masks := make([]uint64, len(qubits))
	for i, q := range qubits {
		if q < 0 || q >= s.n {
			panic(fmt.Sprintf("statevec: marginal qubit %d out of range", q))
		}
		masks[i] = uint64(1) << uint(q)
	}
	out := make([]float64, 1<<uint(len(qubits)))
	re, im := s.re, s.im
	for i := range re {
		p := re[i]*re[i] + im[i]*im[i]
		if p == 0 {
			continue
		}
		var idx uint64
		for b, m := range masks {
			if uint64(i)&m != 0 {
				idx |= 1 << uint(b)
			}
		}
		out[idx] += p
	}
	return out
}

// MarginalCounts projects a measurement histogram onto the listed qubits,
// same bit convention as Marginal.
func MarginalCounts(counts map[uint64]int, qubits []int) map[uint64]int {
	out := make(map[uint64]int, len(counts))
	for bits, n := range counts {
		var idx uint64
		for b, q := range qubits {
			if bits>>uint(q)&1 == 1 {
				idx |= 1 << uint(b)
			}
		}
		out[idx] += n
	}
	return out
}
