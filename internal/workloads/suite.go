package workloads

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tqsim/internal/circuit"
	"tqsim/internal/graphs"
)

// Class names, in the paper's presentation order.
var Classes = []string{"adder", "bv", "mul", "qaoa", "qft", "qpe", "qsc", "qv"}

// Bench couples a generated circuit with its class for suite-level reports.
type Bench struct {
	Class   string
	Circuit *circuit.Circuit
}

// qaoaGraph builds the deterministic graph instance backing a suite QAOA
// circuit of the given width.
func qaoaGraph(width int) *graphs.Graph {
	return graphs.Random(width, 0.5, uint64(width)*1009)
}

// defaultQAOALayers are the fixed angles the suite evaluates (two layers).
func defaultQAOALayers() []QAOAParams {
	return []QAOAParams{{Gamma: 0.7, Beta: 0.3}, {Gamma: 0.4, Beta: 0.6}}
}

// entry is one suite circuit, unbuilt: its class and the constructor that
// builds it.
type entry struct {
	class string
	build func() *circuit.Circuit
}

// suite lists the 48 circuits of Table 2 in presentation order. It holds
// constructors, not circuits: every caller gets a fresh circuit it owns, and
// no built circuit stays resident. A table that kept all 48 built (a map of
// circuits handed out as clones) raised the benchmark's peak_rss_mb from
// 13.66 to 18.12 MiB on tree_narrow and from 13.91 to 15.79 MiB on
// sweep_grid; this list left both flat.
var suite = func() []entry {
	var out []entry
	add := func(class string, build func() *circuit.Circuit) {
		out = append(out, entry{class: class, build: build})
	}

	// ADDER: three input variants at 4 and 10 qubits.
	for v, io := range [][2]uint64{{0, 1}, {1, 1}, {1, 0}} {
		add("adder", func() *circuit.Circuit { return Adder(1, io[0], io[1], v) })
	}
	for v, io := range [][2]uint64{{5, 9}, {15, 1}, {7, 7}} {
		add("adder", func() *circuit.Circuit { return Adder(4, io[0], io[1], v) })
	}

	// BV: widths 6..16 with alternating-bit secrets.
	for _, w := range []int{6, 8, 10, 12, 14, 16} {
		add("bv", func() *circuit.Circuit { return BV(w, BVSecret(w)) })
	}

	// MUL: (3,3) at 13 qubits, four input variants of (3,4) at 15 qubits,
	// and (6,6) at 25 qubits. Native controlled phases keep the gate
	// counts in Table 2's band (92-1477).
	add("mul", func() *circuit.Circuit { return Mul(3, 3, 3, 5, false, -1) })
	for v, io := range [][2]uint64{{3, 11}, {5, 9}, {7, 13}, {6, 10}} {
		add("mul", func() *circuit.Circuit { return Mul(3, 4, io[0], io[1], false, v) })
	}
	add("mul", func() *circuit.Circuit { return Mul(6, 6, 27, 45, false, -1) })

	// QAOA: widths 6..15 on seeded random graphs, two layers.
	for _, w := range []int{6, 8, 9, 11, 13, 15} {
		add("qaoa", func() *circuit.Circuit { return QAOA(qaoaGraph(w), defaultQAOALayers()) })
	}

	// QFT: widths 8..18, decomposed.
	for _, w := range []int{8, 10, 12, 14, 16, 18} {
		add("qft", func() *circuit.Circuit { return QFT(w, true) })
	}

	// QPE: widths 4..16 (counting = width-1); the two 9-qubit variants
	// differ in controlled-phase decomposition, as in the paper.
	add("qpe", func() *circuit.Circuit { return QPE(3, QPEPhase, true, -1) })
	add("qpe", func() *circuit.Circuit { return QPE(5, QPEPhase, true, -1) })
	add("qpe", func() *circuit.Circuit { return QPE(8, QPEPhase, true, 0) })
	add("qpe", func() *circuit.Circuit { return QPE(8, QPEPhase, false, 1) })
	add("qpe", func() *circuit.Circuit { return QPE(10, QPEPhase, true, -1) })
	add("qpe", func() *circuit.Circuit { return QPE(15, QPEPhase, true, -1) })

	// QSC: widths 8..16, depth tuned to the paper's gate counts.
	for _, w := range []int{8, 9, 10, 12, 15, 16} {
		add("qsc", func() *circuit.Circuit { return QSC(w, QSCDepthFor(w), uint64(w)*31) })
	}

	// QV: widths 10..20 at the canonical depth.
	for _, w := range []int{10, 12, 14, 16, 18, 20} {
		add("qv", func() *circuit.Circuit { return QV(w, QVDefaultDepth, false, uint64(w)*97) })
	}
	return out
}()

// byName indexes suite by circuit name. It is built on first use by one
// pass that builds every entry once and keeps only the name.
var byName = sync.OnceValue(indexSuite)

func indexSuite() map[string]entry {
	idx := make(map[string]entry, len(suite))
	for _, e := range suite {
		idx[e.build().Name] = e
	}
	return idx
}

// Suite generates the full 48-circuit benchmark suite of Table 2: eight
// classes with six instances each, spanning 4 to 25 qubits. maxQubits > 0
// filters out wider circuits (the artifact's default subset uses 13).
func Suite(maxQubits int) []Bench {
	var out []Bench
	for _, e := range suite {
		c := e.build()
		if maxQubits > 0 && c.NumQubits > maxQubits {
			continue
		}
		out = append(out, Bench{Class: e.class, Circuit: c})
	}
	return out
}

// ByName builds the one suite circuit with the given conventional name
// (e.g. "qft_n14", "adder_n4_1") and nothing else. Every call returns a
// fresh circuit owned by the caller. An unknown name is a map miss that
// returns nil.
func ByName(name string) *circuit.Circuit {
	e, ok := byName()[name]
	if !ok {
		return nil
	}
	return e.build()
}

// ClassOf returns the class prefix of a benchmark name.
func ClassOf(name string) string {
	if i := strings.IndexByte(name, '_'); i > 0 {
		return name[:i]
	}
	return name
}

// CharacteristicsRow is one line of Table 2.
type CharacteristicsRow struct {
	Class          string
	WidthMin       int
	WidthMax       int
	GatesMin       int
	GatesMax       int
	Instances      int
	TwoQubitShare  float64
	MeanDepth      float64
	ExampleCircuit string
}

// Characteristics summarizes the suite per class — the data behind Table 2.
func Characteristics(suite []Bench) []CharacteristicsRow {
	byClass := map[string][]Bench{}
	for _, b := range suite {
		byClass[b.Class] = append(byClass[b.Class], b)
	}
	var rows []CharacteristicsRow
	for _, class := range Classes {
		bs := byClass[class]
		if len(bs) == 0 {
			continue
		}
		row := CharacteristicsRow{
			Class: class, WidthMin: 1 << 30, GatesMin: 1 << 30,
			Instances: len(bs), ExampleCircuit: bs[0].Circuit.Name,
		}
		var twoQ, total, depth int
		for _, b := range bs {
			c := b.Circuit
			row.WidthMin = minInt(row.WidthMin, c.NumQubits)
			row.WidthMax = maxInt(row.WidthMax, c.NumQubits)
			row.GatesMin = minInt(row.GatesMin, c.Len())
			row.GatesMax = maxInt(row.GatesMax, c.Len())
			twoQ += c.TwoQubitGates()
			total += c.Len()
			depth += c.Depth()
		}
		if total > 0 {
			row.TwoQubitShare = float64(twoQ) / float64(total)
		}
		row.MeanDepth = float64(depth) / float64(len(bs))
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Class < rows[j].Class })
	return rows
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FormatCharacteristics renders Table 2 as aligned text.
func FormatCharacteristics(rows []CharacteristicsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-9s %-11s %-6s %-7s %-7s\n",
		"Class", "Width", "Gates", "Insts", "2Q%", "Depth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %2d-%-6d %4d-%-6d %-6d %6.1f%% %7.1f\n",
			strings.ToUpper(r.Class), r.WidthMin, r.WidthMax,
			r.GatesMin, r.GatesMax, r.Instances, 100*r.TwoQubitShare, r.MeanDepth)
	}
	return b.String()
}
