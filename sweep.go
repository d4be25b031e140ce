package tqsim

import (
	"context"

	"tqsim/internal/core"
	"tqsim/internal/rng"
	"tqsim/internal/sweep"
	"tqsim/internal/trajectory"
)

// Sweep types, re-exported from the grid engine (internal/sweep). A sweep
// is a first-class grid workload — circuit family × noise axis × shots ×
// partitioner × repeats — where every point routes through the planner and
// the grid executes with cross-point reuse: points sharing a circuit
// structure share one plan/decision, and Pauli-noise points over the same
// plan share ideal-prefix snapshots so only noise-divergent suffixes
// re-run.
type (
	// SweepSpec describes the grid, the seed policy, and the shared
	// execution options. See internal/sweep.Spec for field semantics.
	SweepSpec = sweep.Spec
	// SweepNoisePoint is one value on a sweep's noise axis.
	SweepNoisePoint = sweep.NoisePoint
	// SweepPartition is one value on a sweep's partitioner axis.
	SweepPartition = sweep.PartitionSpec
	// SweepPoint is one expanded grid cell.
	SweepPoint = sweep.Point
	// SweepPointResult is one executed point: coordinates, histogram (or
	// observable estimate), planner decision, and work accounting.
	SweepPointResult = sweep.PointResult
	// SweepResult aggregates a sweep run.
	SweepResult = sweep.Result
	// PreparedSweep is an expanded, validated, fully planned sweep; see
	// PrepareSweep.
	PreparedSweep = sweep.Prepared
)

// SweepSeed returns the derived seed sweep point i runs at — point 0 keeps
// the base seed, so a single-point sweep is byte-identical to RunTQSim at
// the same seed. This is the engine's determinism anchor: RunSweep point i
// equals the standalone run at SweepSeed(spec.Seed, i).
func SweepSeed(base uint64, i int) uint64 {
	return rng.SeedAt(base, uint64(i))
}

// RunSweep expands the spec's grid and executes every point with
// cross-point reuse. Per-point histograms are byte-identical to running
// each point standalone (RunTQSim for mode "tqsim", RunBackend for mode
// "baseline") at the derived per-point seeds, with reuse on or off, at any
// Concurrency — the sweep accelerates the grid without changing a single
// sample.
func RunSweep(spec *SweepSpec) (*SweepResult, error) {
	return RunSweepContext(context.Background(), spec, nil)
}

// RunSweepContext is RunSweep with cooperative cancellation and an optional
// per-point observer. onPoint runs under an internal lock as points
// complete (completion order is nondeterministic at Concurrency > 1, point
// contents are not); an onPoint error aborts the sweep.
func RunSweepContext(ctx context.Context, spec *SweepSpec, onPoint func(*SweepPointResult) error) (*SweepResult, error) {
	prep, err := PrepareSweep(spec)
	if err != nil {
		return nil, err
	}
	return prep.Run(ctx, sweepRunner, onPoint)
}

// PrepareSweep validates the spec, expands the grid, and builds every
// distinct plan and planner decision without executing anything — the
// admission-control hook tqsimd uses (PreparedSweep.MaxEstPeakBytes) before
// committing memory to a sweep. Execute with RunPreparedSweep.
func PrepareSweep(spec *SweepSpec) (*PreparedSweep, error) {
	return sweep.Prepare(spec)
}

// RunPreparedSweep executes points [from, to) of a prepared sweep — the
// range form is the distributed coordinator's lease unit; (0, NumPoints)
// runs the whole grid. Point results are a pure function of (spec, index),
// so any range partitioning reassembles into the identical sweep.
func RunPreparedSweep(ctx context.Context, prep *PreparedSweep, from, to int, onPoint func(*SweepPointResult) error) (*SweepResult, error) {
	return prep.RunRange(ctx, sweepRunner, from, to, onPoint)
}

// sweepRunner is the canonical point executor: the same planner-routed
// engine dispatch as RunPlanContext, with the sweep's shared ideal-prefix
// snapshots threaded into the dense executor, plus the observable
// estimation routes for Hamiltonian sweeps.
func sweepRunner(ctx context.Context, req *sweep.RunRequest) (*sweep.RunOutput, error) {
	opt := Options{
		Seed:         req.Seed,
		Backend:      req.Backend,
		Parallelism:  req.Parallelism,
		ClusterNodes: req.ClusterNodes,
		// The budget the point was planned and admitted under, so the
		// executor's reuse decision is the planner's.
		MemoryBudgetBytes: req.MemoryBudgetBytes,
	}
	if req.Observable != nil {
		return runSweepExpectation(ctx, req, opt)
	}
	res, err := runPlan(ctx, req.Plan, req.Noise, opt, req.Prefix, req.NoReuse)
	if err != nil {
		return nil, err
	}
	return &sweep.RunOutput{Res: res}, nil
}

// runSweepExpectation estimates the point's observable. Mode "tqsim"
// mirrors EstimateExpectationTQSim (tree executor, dense leaf states, the
// prefix hook applies); mode "baseline" mirrors EstimateExpectationBaseline
// (trajectory engine), so sweep estimates are byte-identical to the
// standalone estimators at the derived seeds.
func runSweepExpectation(ctx context.Context, req *sweep.RunRequest, opt Options) (*sweep.RunOutput, error) {
	h := req.Observable
	if req.Mode == "baseline" {
		res, err := trajectory.RunExpectation(req.Plan.Circuit, req.Noise, h,
			req.Plan.TotalOutcomes(), trajectory.Options{Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		return &sweep.RunOutput{
			Estimate: &res.Stats,
			Res: &core.Result{
				Outcomes:         req.Plan.TotalOutcomes(),
				GateApplications: res.GateApplications,
				Structure:        req.Plan.Structure(),
				BackendName:      "statevec",
				Elapsed:          res.Elapsed,
			},
		}, nil
	}
	ex, err := opt.executor(ctx, req.Plan.Circuit, req.Noise, req.Prefix)
	if err != nil {
		return nil, err
	}
	ex.FullWalk = req.NoReuse
	er, err := ex.RunExpectation(req.Plan, h)
	if err != nil {
		return nil, err
	}
	return &sweep.RunOutput{Res: er.Run, Estimate: &er.Stats}, nil
}
