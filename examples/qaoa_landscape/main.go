// QAOA landscape: regenerate a max-cut cost landscape (the paper's
// Figure 18 use case) with both simulators and print the TQSim landscape as
// an ASCII heat map alongside the speedup and landscape MSE.
//
//	go run ./examples/qaoa_landscape
package main

import (
	"fmt"
	"log"
	"math"

	"tqsim"
)

const (
	grid  = 11
	shots = 400
	seed  = 7
)

func main() {
	g := tqsim.RandomGraph(8, 0.5, 3)
	fmt.Printf("max-cut QAOA on %s: %d vertices, %d edges (optimum %d)\n",
		g.Name, g.N, g.NumEdges(), g.MaxCut())

	noise := tqsim.SycamoreNoise()
	opt := tqsim.Options{CopyCost: 5, Epsilon: 0.05}

	var baseLand, tqLand [grid][grid]float64
	var baseSec, tqSec float64
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			gamma := -math.Pi + 2*math.Pi*float64(i)/(grid-1)
			beta := -math.Pi + 2*math.Pi*float64(j)/(grid-1)
			c := tqsim.QAOACircuit(g, []tqsim.QAOAParams{{Gamma: gamma, Beta: beta}})

			o := opt
			o.Seed = tqsim.SweepSeed(seed, 2*(i*grid+j))
			base, err := tqsim.RunBaselineBackend(c, noise, shots, o)
			if err != nil {
				log.Fatal(err)
			}
			baseSec += base.Elapsed.Seconds()
			baseLand[i][j] = tqsim.ExpectedCut(g, base.Counts)

			o.Seed = tqsim.SweepSeed(seed, 2*(i*grid+j)+1)
			res, err := tqsim.RunTQSim(c, noise, shots, o)
			if err != nil {
				log.Fatal(err)
			}
			tqSec += res.Elapsed.Seconds()
			tqLand[i][j] = tqsim.ExpectedCut(g, res.Counts)
		}
	}

	fmt.Printf("\nTQSim cost landscape (gamma down, beta across; dark = high cut):\n")
	shades := []byte(" .:-=+*#%@")
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			lo = math.Min(lo, tqLand[i][j])
			hi = math.Max(hi, tqLand[i][j])
		}
	}
	for i := 0; i < grid; i++ {
		fmt.Print("  ")
		for j := 0; j < grid; j++ {
			level := int((tqLand[i][j] - lo) / (hi - lo + 1e-12) * float64(len(shades)-1))
			fmt.Printf("%c%c", shades[level], shades[level])
		}
		fmt.Println()
	}

	var mse float64
	opt2 := float64(g.MaxCut())
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			d := (baseLand[i][j] - tqLand[i][j]) / opt2
			mse += d * d
		}
	}
	mse /= grid * grid
	fmt.Printf("\ngrid points %d, baseline %.1fs, tqsim %.1fs (%.2fx), landscape MSE %.5f\n",
		grid*grid, baseSec, tqSec, baseSec/tqSec, mse)
	fmt.Println("(paper Figure 18: 1.6-3.7x speedup, MSE ~0.002)")
}
