package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tqsim"
	"tqsim/internal/sweep"
)

// TestNoiseNameVocabulary pins one noise-name vocabulary across the three
// entry points that take a name from outside the program: POST /v1/jobs,
// POST /v1/sweeps and the CLI helper tqsim.LookupNoise. Each accepts the
// same spellings, rejects the same typos (never falling back to the ideal
// circuit), and keys its caches on the canonical spelling, so a respelled
// request replays the first one's stored bytes.
func TestNoiseNameVocabulary(t *testing.T) {
	ts := httptest.NewServer(New(Config{StoreEntries: 64}))
	defer ts.Close()

	cases := []struct {
		name      string
		canonical string // "" = rejected
	}{
		{"DC", "DC"},
		{"dc", "DC"},
		{" Trr ", "TRR"},
		{"pdr", "PDR"},
		{"ALL", "ALL"},
		{"ideal", "ideal"},
		{"IDEAL", "ideal"},
		{"none", "ideal"},
		{"DCX", ""},
		{"IDEALR", ""},
		{"R", ""},
		{"depolarizing", ""},
	}
	off := false
	for _, tc := range cases {
		m, err := tqsim.LookupNoise(tc.name)
		if (err == nil) != (tc.canonical != "") {
			t.Errorf("LookupNoise(%q): err %v", tc.name, err)
		} else if err == nil && m.Name() != tc.canonical {
			t.Errorf("LookupNoise(%q) is %q, want %q", tc.name, m.Name(), tc.canonical)
		}

		wantStatus := http.StatusOK
		if tc.canonical == "" {
			wantStatus = http.StatusBadRequest
		}
		hits := statsOf(t, ts.URL).ResultsHits
		job := &JobRequest{Circuit: "bv_n6", Noise: tc.name, Shots: 50, Seed: 3}
		resp, body := postJSON(t, ts.URL+"/v1/jobs", job)
		if resp.StatusCode != wantStatus {
			t.Errorf("/v1/jobs noise %q: status %d: %s", tc.name, resp.StatusCode, body)
		}
		spec := &SweepRequest{Stream: &off, Spec: sweep.Spec{
			Circuit: "bv_n6", Noise: []sweep.NoisePoint{{Name: tc.name}}, Shots: []int{40}, Seed: 3}}
		resp, body = postJSON(t, ts.URL+"/v1/sweeps", spec)
		if resp.StatusCode != wantStatus {
			t.Errorf("/v1/sweeps noise %q: status %d: %s", tc.name, resp.StatusCode, body)
		}
		if tc.canonical == "" {
			continue
		}
		var sr SweepResponse
		if err := json.Unmarshal(body, &sr); err != nil || len(sr.Results) != 1 {
			t.Fatalf("/v1/sweeps noise %q: %v in %s", tc.name, err, body)
		}
		if sr.Results[0].Noise != tc.canonical {
			t.Errorf("/v1/sweeps noise %q reported as %q, want %q", tc.name, sr.Results[0].Noise, tc.canonical)
		}
		// The canonical spelling of the same job and sweep must now be in
		// the store, whatever spelling put it there.
		job.Noise, spec.Noise[0].Name = tc.canonical, tc.canonical
		postJSON(t, ts.URL+"/v1/jobs", job)
		postJSON(t, ts.URL+"/v1/sweeps", spec)
		if got := statsOf(t, ts.URL).ResultsHits - hits; got < 2 {
			t.Errorf("noise %q then %q: %d store hits, want the job and the sweep replayed", tc.name, tc.canonical, got)
		}
	}
}
