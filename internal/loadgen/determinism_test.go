package loadgen

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// detSpec is a spec exercising every deterministic stream: Poisson
// arrivals, a mixed job/sweep/stream/replay request sequence.
func detSpec(seed uint64) *Spec {
	return &Spec{
		Arrival:        "poisson",
		Rate:           200,
		Duration:       2 * time.Second,
		Seed:           seed,
		ReplayFraction: 0.25,
		SLOp99:         500 * time.Millisecond,
	}
}

// TestScheduleDeterministic pins the seeded-determinism contract of the
// arrival schedule: the same (seed, spec) produces the byte-identical
// offset sequence on every call, and different seeds diverge.
func TestScheduleDeterministic(t *testing.T) {
	for _, arrival := range []string{"poisson", "fixed"} {
		spec := detSpec(7)
		spec.Arrival = arrival
		s1, err := spec.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := spec.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if len(s1) == 0 {
			t.Fatalf("%s: empty schedule", arrival)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("%s: offset %d differs across runs: %v vs %v", arrival, i, s1[i], s2[i])
			}
		}
		for i := 1; i < len(s1); i++ {
			if s1[i] < s1[i-1] {
				t.Fatalf("%s: schedule not monotone at %d", arrival, i)
			}
			if s1[i] >= spec.Duration {
				t.Fatalf("%s: offset %d past the run duration", arrival, i)
			}
		}
	}
	other, err := detSpec(8).Schedule()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := detSpec(7).Schedule()
	same := len(other) == len(base)
	if same {
		for i := range base {
			if base[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestRequestSequenceDeterministic pins the request-sequence half of the
// contract: request i's body bytes are a pure function of (spec, i) —
// identical when generated twice, in reverse order, or concurrently from
// many goroutines (run under -race by make race).
func TestRequestSequenceDeterministic(t *testing.T) {
	const n = 250
	spec := detSpec(41)
	want := make([][]byte, n)
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		r, err := spec.RequestAt(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i], paths[i] = r.Body, r.Path
	}

	// Reverse order.
	for i := n - 1; i >= 0; i-- {
		r, err := spec.RequestAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Body, want[i]) || r.Path != paths[i] {
			t.Fatalf("request %d differs when generated in reverse order", i)
		}
	}

	// Concurrently, every index from several goroutines at once.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				r, err := spec.RequestAt(i)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(r.Body, want[i]) {
					t.Errorf("request %d differs under concurrent generation", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The sequence covers the whole mix: jobs, sweeps, and replays.
	var jobs, sweeps, replays int
	for i := 0; i < n; i++ {
		r, _ := spec.RequestAt(i)
		switch r.Kind {
		case "job":
			jobs++
		case "sweep":
			sweeps++
		}
		if r.Replay {
			replays++
		}
	}
	if jobs == 0 || sweeps == 0 || replays == 0 {
		t.Fatalf("mix not exercised: %d jobs, %d sweeps, %d replays", jobs, sweeps, replays)
	}
	// Replay requests must share one pinned body per mix class, so a
	// result store can actually answer the repeats.
	seen := map[string]map[string]bool{}
	for i := 0; i < n; i++ {
		r, _ := spec.RequestAt(i)
		if !r.Replay {
			continue
		}
		if seen[r.Path] == nil {
			seen[r.Path] = map[string]bool{}
		}
		seen[r.Path][string(r.Body)] = true
	}
	for path, bodies := range seen {
		if len(bodies) > len(DefaultMix) {
			t.Fatalf("%s replay requests spread over %d distinct bodies", path, len(bodies))
		}
	}
}

// TestSpecValidation covers the rejection paths.
func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{Arrival: "poisson", Duration: time.Second},                                        // no rate
		{Arrival: "warp", Rate: 10, Duration: time.Second},                                 // unknown process
		{Arrival: "fixed", Rate: 10},                                                       // no duration
		{Arrival: "fixed", Rate: 1e9, Duration: time.Hour},                                 // schedule cap
		{Rate: 10, Duration: time.Second, Mix: []MixEntry{{}}},                             // empty mix entry
		{Rate: 10, Duration: time.Second, Mix: []MixEntry{{Weight: 1, Circuit: "bv_n10"}}}, // no shots
	}
	for i, s := range cases {
		if _, err := s.Schedule(); err == nil {
			if _, err := s.RequestAt(0); err == nil {
				t.Errorf("case %d: invalid spec accepted", i)
			}
		}
	}
}
