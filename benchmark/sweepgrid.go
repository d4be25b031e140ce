package main

import (
	"context"
	"fmt"
	"time"

	"tqsim"
)

// sweepShots sizes every point of the grid; the warm-up sweep of each
// set-up runs at a fifth of it.
const sweepShots = 250

// sweepSpec is the sweep_grid input: qft_n12 over four depolarizing points
// and two repeats, eight points, backend left at the spec default. noReuse
// selects the reference path with cross-point prefix reuse off.
func sweepSpec(seed uint64, shots int, noReuse bool) *tqsim.SweepSpec {
	return &tqsim.SweepSpec{
		Circuit: "qft_n12",
		Noise: []tqsim.SweepNoisePoint{
			{P1: 0.0002, P2: 0.001},
			{P1: 0.0005, P2: 0.002},
			{P1: 0.001, P2: 0.005},
			{P1: 0.002, P2: 0.008},
		},
		Shots:   []int{shots},
		Repeats: 2,
		Seed:    seed,
		NoReuse: noReuse,
	}
}

// sweepRun is one sweep. Untraced it is the single RunSweep call; traced it
// is the same prepare-then-run pair with a span around each and one child
// span per delivered point.
func sweepRun(spec *tqsim.SweepSpec, tr *tracer, parent *openSpan, trace int64) (*tqsim.SweepResult, error) {
	if tr == nil {
		return tqsim.RunSweep(spec)
	}
	sp := tr.begin("sweep.prepare", parent, trace)
	prep, err := tqsim.PrepareSweep(spec)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sweep.run", parent, trace)
	defer sp.end()
	last := time.Now()
	return tqsim.RunPreparedSweep(context.Background(), prep, 0, prep.NumPoints(), func(*tqsim.SweepPointResult) error {
		now := time.Now()
		tr.beginAt("sweep.point", sp.id(), trace, last).endAt(now)
		last = now
		return nil
	})
}

func runSweepGrid(cfg runCfg) (*result, error) {
	res := newResult()
	shots := cfg.scaled(sweepShots, 20)
	var setupS []float64
	for i := 0; i < 3; i++ {
		var err error
		setupS = append(setupS, timed(func() {
			if _, err = tqsim.PrepareSweep(sweepSpec(cfg.seed, shots, false)); err == nil {
				_, err = tqsim.RunSweep(sweepSpec(cfg.seed, max(shots/5, 10), false))
			}
		}).Seconds())
		if err != nil {
			return nil, err
		}
	}

	var onRate, offRate, onMS, agree []float64
	var traceCost overhead
	var firstOn, firstOff *tqsim.SweepResult
	var firstDigests []string
	mem := markMem()
	err := repeatUntil(cfg.duration(1), 2, func(rep int) error {
		tr := cfg.tr
		if rep%2 == 0 {
			tr = nil
		}
		root := tr.begin("workload.repeat", nil, int64(rep))
		defer root.end()

		var on, off *tqsim.SweepResult
		var err error
		wall := timed(func() { on, err = sweepRun(sweepSpec(cfg.seed, shots, false), tr, root, int64(rep)) })
		if err != nil {
			return err
		}
		points := len(on.Points)
		res.attempted += points
		onRate = append(onRate, float64(points)/wall.Seconds())
		onMS = append(onMS, wall.Seconds()*1e3)
		traceCost.add(tr != nil, wall.Seconds()*1e3)

		wall = timed(func() { off, err = tqsim.RunSweep(sweepSpec(cfg.seed, shots, true)) })
		if err != nil {
			return err
		}
		res.attempted += len(off.Points)
		offRate = append(offRate, float64(len(off.Points))/wall.Seconds())

		res.check(points == 8 && len(off.Points) == points, points, "repeat %d: %d points with reuse, %d without, want 8", rep, points, len(off.Points))
		res.check(on.PrefixReuseHits > 0, points, "repeat %d: cross-point reuse served no node", rep)
		same := 0
		digests := make([]string, points)
		for i := range on.Points {
			p := &on.Points[i]
			digests[i] = histDigest(p.Counts)
			res.checkHistogram(fmt.Sprintf("repeat %d point %d", rep, i), p.Counts, p.Outcomes, shots)
			identical := i < len(off.Points) && digests[i] == histDigest(off.Points[i].Counts)
			res.check(identical, 1, "repeat %d point %d: histogram differs between reuse on and off", rep, i)
			if identical {
				same++
			}
		}
		agree = append(agree, float64(same)/float64(max(points, 1)))
		if rep == 0 {
			firstOn, firstOff, firstDigests = on, off, digests
			return nil
		}
		exact := on.GateApplications == firstOn.GateApplications && on.StateCopies == firstOn.StateCopies &&
			on.PrefixReuseHits == firstOn.PrefixReuseHits && on.PlansBuilt == firstOn.PlansBuilt
		for i := range digests {
			exact = exact && i < len(firstDigests) && digests[i] == firstDigests[i]
		}
		res.check(exact, points, "repeat %d: sweep counts or histograms differ from the first repeat's", rep)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.e2e["setup_s"] = fastTime(setupS)
	res.e2e["ops_per_s"] = fastRate(onRate)
	res.e2e["ref_ops_per_s"] = fastRate(offRate)
	res.e2e["agreement"] = summarize(agree)
	res.e2e["latency_ms"] = fastTime(onMS)

	if cfg.tr == nil {
		return res, nil
	}
	res.layer = mem.since(res.attempted)
	res.layer["sweep.work_ratio"] = float64(firstOn.GateApplications) / float64(max(firstOff.GateApplications, 1))
	res.layer["sweep.prefix_reuse_hits"] = float64(firstOn.PrefixReuseHits)
	res.layer["sweep.distinct_plans"] = float64(firstOn.PlansBuilt)
	res.layer["sweep.reuse_off_points_per_s"] = median(offRate)
	res.layer["core.gate_ops"] = float64(firstOn.GateApplications)
	res.layer["core.state_copies"] = float64(firstOn.StateCopies)
	res.layer["core.ns_per_gate_op"] = median(onMS) * 1e6 / float64(firstOn.GateApplications)
	res.layer["trace.overhead_ratio"] = traceCost.ratio()
	return res, nil
}
