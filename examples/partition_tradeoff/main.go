// Partition trade-off: evaluate the six tree structures of the paper's
// Figure 17 on one circuit, showing how aggressive reuse buys speed at the
// cost of accuracy — and how DCP picks a safe point automatically.
//
//	go run ./examples/partition_tradeoff
package main

import (
	"fmt"
	"log"

	"tqsim"
)

func main() {
	c := tqsim.QPECircuit(6, 1.0/3.0)
	noise := tqsim.SycamoreNoise()
	const shots = 1000
	opt := tqsim.Options{Seed: 3}

	ideal := tqsim.IdealDistribution(c)
	base, err := tqsim.RunBaselineBackend(c, noise, shots, opt)
	if err != nil {
		log.Fatal(err)
	}
	baseF := tqsim.NormalizedFidelity(ideal, tqsim.CountsDist(base.Counts, c.NumQubits))
	basePerShot := float64(base.GateApplications) / float64(base.Shots)
	fmt.Printf("circuit %s (%d gates), %d shots, baseline fidelity %.4f\n\n",
		c.Name, c.Len(), shots, baseF)

	structures := []struct {
		label   string
		arities []int
	}{
		{"DCP-like (250,2,2)", []int{250, 2, 2}},
		{"XCP (20,10,5)", []int{20, 10, 5}},
		{"UCP (10,10,10)", []int{10, 10, 10}},
		{"inverted (5,10,20)", []int{5, 10, 20}},
		{"extreme (2,2,250)", []int{2, 2, 250}},
		{"degenerate (250,1,1)", []int{250, 1, 1}},
	}
	fmt.Printf("%-22s %9s %9s %9s\n", "Structure", "WorkSpd", "Outcomes", "FidDiff")
	for _, s := range structures {
		plan := tqsim.PlanStructure(c, s.arities)
		res, err := tqsim.RunPlan(plan, noise, tqsim.Options{Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		f := tqsim.NormalizedFidelity(ideal, tqsim.CountsDist(res.Counts, c.NumQubits))
		diff := baseF - f
		if diff < 0 {
			diff = -diff
		}
		workSpd := basePerShot / (float64(res.GateApplications) / float64(res.Outcomes))
		fmt.Printf("%-22s %8.2fx %9d %9.4f\n", s.label, workSpd, res.Outcomes, diff)
	}

	auto := tqsim.PlanDCP(c, noise, shots, tqsim.Options{CopyCost: 5, Epsilon: 0.05})
	fmt.Printf("\nDCP's automatic choice: %s (theoretical bound %.2fx)\n",
		auto.Structure(), auto.TheoreticalSpeedup(5))
	fmt.Println("shape check: front-loaded structures keep accuracy; (250,1,1) collapses")
	fmt.Println("to 250 outcomes and its fidelity deviates sharply (paper Figure 17)")
}
