package main

import (
	"fmt"

	"tqsim"
)

// runPlanner prints the auto-dispatch decision table: for each (circuit,
// noise) cell of a workload grid spanning the Clifford/non-Clifford and
// narrow/wide axes, the engine the planner picks and its one-line reason.
// The grid mirrors internal/planner's decision-table test, so the printed
// table and the pinned expectations cannot drift apart silently.
func runPlanner(cfg config) {
	shots := 2000
	if cfg.full {
		shots = 16000
	}
	type cell struct {
		circuit *tqsim.Circuit
		noise   string
	}
	cells := []cell{
		{tqsim.GHZCircuit(8), "DC"},
		{tqsim.GHZCircuit(40), "DC"},
		{tqsim.BVCircuit(32, 0xABCDE), "DC"},
		{tqsim.CliffordCircuit(56, 6, cfg.seed), "ideal"},
		{tqsim.QFTCircuit(10), "DC"},
		{tqsim.QSCCircuit(8, 6, cfg.seed), "DC"},
		{tqsim.CliffordPrefixCircuit(12, 24, cfg.seed), "DC"},
		{tqsim.GHZCircuit(10), "TRR"},
		{tqsim.GHZCircuit(48), "TRR"}, // no viable engine: error row
		{tqsim.QSCCircuit(8, 6, cfg.seed), "ideal"},
	}
	fmt.Printf("%-18s %2s %-6s %-10s %-24s %s\n",
		"circuit", "n", "noise", "clifford", "decision", "why")
	for _, c := range cells {
		m := mustNoise(c.noise)
		opt := tqsim.Options{Seed: cfg.seed, CopyCost: 20}
		d, err := tqsim.Explain(c.circuit, m, shots, opt)
		cliff := "—"
		if d != nil {
			cliff = fmt.Sprintf("%d/%d", d.CliffordPrefix, d.TotalGates)
		}
		if err != nil {
			fmt.Printf("%-18s %2d %-6s %-10s %-24s %v\n",
				c.circuit.Name, c.circuit.NumQubits, c.noise, cliff, "(none)", err)
			continue
		}
		choice := d.Backend
		if d.Mode != "" {
			choice += "/" + d.Mode
		}
		fmt.Printf("%-18s %2d %-6s %-10s %-24s %s\n",
			c.circuit.Name, c.circuit.NumQubits, c.noise, cliff, choice, d.Why)
	}
}
