package tqsim

import (
	"context"

	"tqsim/internal/rng"
	"tqsim/internal/sweep"
)

// Sweep types, re-exported from the grid engine (internal/sweep). A sweep
// is a first-class grid workload — circuit family × noise axis × shots ×
// partitioner × repeats — where every point routes through the planner and
// the grid executes with cross-point reuse: points sharing a circuit
// structure share one plan/decision, and Pauli-noise points take their
// ideal spines from one snapshot cache so only noise-divergent suffixes
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
	return prep.RunRange(ctx, 0, prep.NumPoints(), onPoint)
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
	return prep.RunRange(ctx, from, to, onPoint)
}
