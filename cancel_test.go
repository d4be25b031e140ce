package tqsim_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"tqsim"
)

// TestStabilizerTreeHonoursCancellation: a flat Clifford plan is one tableau
// node per shot, so a 4M-shot GHZ job (minutes of work) must stop when its
// context is cancelled mid-run — promptly, with context.Canceled, and never
// with a partial histogram. This is what lets a disconnected tqsimd client
// release its slot.
func TestStabilizerTreeHonoursCancellation(t *testing.T) {
	plan := tqsim.PlanBaseline(tqsim.GHZCircuit(40), 4_000_000)
	opt := tqsim.Options{Seed: 3, Backend: "stabilizer", Parallelism: 2}

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	type outcome struct {
		res *tqsim.TreeResult
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := tqsim.RunPlanContext(ctx, plan, tqsim.SycamoreNoise(), opt)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("cancelled run returned (%v, %v) after %v, want context.Canceled",
				out.res, out.err, time.Since(start))
		}
		if out.res != nil {
			t.Fatal("cancelled run exposed a partial result")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stabilizer tree ignored cancellation for 10s")
	}
}
