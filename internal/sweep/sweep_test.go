package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/guard"
	"srcsim/internal/harness"
	"srcsim/internal/sweep/cache"
)

// fastSpec is a campaign that needs no TPM training: an analytic fig2
// grid plus two tiny chaos soaks. Used by the orchestration tests,
// where the subject is scheduling/caching/resume, not the simulation.
func fastSpec() *CampaignSpec {
	return &CampaignSpec{
		Name: "fast",
		Seed: 7,
		Experiments: []ExperimentSpec{
			{Experiment: "fig2", Grid: map[string][]string{"cut_factor": {"0.25", "0.5", "0.75"}}},
			{Experiment: "chaos-soak", Params: map[string]string{"requests": "120"},
				Grid: map[string][]string{"seed": {"7", "8"}}},
		},
	}
}

// TestExpandDeterminism: expansion is a pure function of the spec —
// same spec, same job list; the master seed only moves derived seeds.
func TestExpandDeterminism(t *testing.T) {
	a, err := fastSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("expansion not deterministic:\n%v\n%v", a, b)
	}

	wantIDs := []string{"00-fig2#000", "00-fig2#001", "00-fig2#002", "01-chaos-soak#000", "01-chaos-soak#001"}
	for i, j := range a {
		if j.ID != wantIDs[i] {
			t.Fatalf("job %d ID %s, want %s", i, j.ID, wantIDs[i])
		}
	}

	// Grid-pinned seeds survive untouched.
	if a[3].Seed != 7 || a[4].Seed != 8 {
		t.Fatalf("pinned seeds rewritten: %d %d", a[3].Seed, a[4].Seed)
	}

	// A different master seed re-derives unpinned seeds only.
	spec := fastSpec()
	spec.Experiments[1].Grid = nil // chaos seed now unpinned -> derived
	c1, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	spec2 := fastSpec()
	spec2.Experiments[1].Grid = nil
	spec2.Seed = 8
	c2, err := spec2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if c1[3].Seed == c2[3].Seed {
		t.Fatalf("derived seed ignored the campaign master seed: %d", c1[3].Seed)
	}
	if c1[3].Seed == 0 || c1[3].Params["seed"] == "" {
		t.Fatalf("derived seed missing: %+v", c1[3])
	}
}

// TestExpandOdometerOrder: axes iterate in sorted-name order with the
// last axis fastest, so grid declaration order cannot change job IDs.
func TestExpandOdometerOrder(t *testing.T) {
	spec := &CampaignSpec{
		Name: "grid",
		Experiments: []ExperimentSpec{{
			Experiment: "fig7",
			Grid: map[string][]string{
				"seed":     {"1", "2"},
				"requests": {"100", "200"},
			},
		}},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("jobs %d, want 4", len(jobs))
	}
	// Axes sorted: requests, seed; seed varies fastest.
	want := []struct{ requests, seed string }{
		{"100", "1"}, {"100", "2"}, {"200", "1"}, {"200", "2"},
	}
	for i, w := range want {
		if jobs[i].Params["requests"] != w.requests || jobs[i].Params["seed"] != w.seed {
			t.Fatalf("job %d = %v, want %v", i, jobs[i].Params, w)
		}
	}
}

// TestExpandRejectsBadSpecs: unknown experiments and parameter typos
// fail expansion, before any job runs.
func TestExpandRejectsBadSpecs(t *testing.T) {
	spec := &CampaignSpec{Name: "bad", Experiments: []ExperimentSpec{{Experiment: "fig404"}}}
	if _, err := spec.Expand(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	spec = &CampaignSpec{Name: "bad", Experiments: []ExperimentSpec{
		{Experiment: "fig2", Params: map[string]string{"cut_facto": "0.5"}}}}
	if _, err := spec.Expand(); err == nil {
		t.Fatal("typo'd parameter accepted")
	}
	spec = &CampaignSpec{Name: "bad", Experiments: []ExperimentSpec{
		{Experiment: "fig2", Grid: map[string][]string{"cut_factor": {}}}}}
	if _, err := spec.Expand(); err == nil {
		t.Fatal("empty grid axis accepted")
	}
}

// TestParseCampaignStrict: unknown spec fields are rejected.
func TestParseCampaignStrict(t *testing.T) {
	_, err := ParseCampaign(strings.NewReader(`{"name":"x","experiments":[{"experiment":"fig2"}],"wokers":4}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseCampaign(strings.NewReader(`{"name":"x"}`)); err == nil {
		t.Fatal("empty campaign accepted")
	}
}

// readOutputs loads the byte-identity-relevant campaign outputs.
func readOutputs(t *testing.T, dir string) (report, aggregate []byte) {
	t.Helper()
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	aggregate, err = os.ReadFile(filepath.Join(dir, "aggregate.json"))
	if err != nil {
		t.Fatal(err)
	}
	return report, aggregate
}

// TestCacheHitByteIdentity: a second run of the same campaign against a
// shared cache executes every job as a cache hit and reproduces the
// aggregate outputs byte-for-byte in a fresh output directory.
func TestCacheHitByteIdentity(t *testing.T) {
	c := cache.New(filepath.Join(t.TempDir(), "cache"))

	run := func(out string) *Report {
		r := &Runner{Out: out, Cache: c}
		rep, err := r.Run(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed > 0 {
			t.Fatalf("failed jobs: %d", rep.Failed)
		}
		return rep
	}

	out1 := filepath.Join(t.TempDir(), "run1")
	rep1 := run(out1)
	if rep1.CacheHits != 0 {
		t.Fatalf("first run hit the cache: %d", rep1.CacheHits)
	}

	out2 := filepath.Join(t.TempDir(), "run2")
	rep2 := run(out2)
	if rep2.CacheHits != rep2.Total || rep2.Executed != rep2.Total {
		t.Fatalf("second run: hits %d/%d executed %d", rep2.CacheHits, rep2.Total, rep2.Executed)
	}

	r1, a1 := readOutputs(t, out1)
	r2, a2 := readOutputs(t, out2)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("report.txt diverged:\n%s\n---\n%s", r1, r2)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatalf("aggregate.json diverged")
	}
}

// stopAfter fires the stopper once it has seen n job-completion log
// lines; with Workers=1 this deterministically interrupts a campaign
// mid-flight, simulating a kill between two jobs.
type stopAfter struct {
	stop *guard.Stopper
	n    int
	seen int
}

func (s *stopAfter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), " done") {
		s.seen++
		if s.seen == s.n {
			s.stop.Stop("test kill")
		}
	}
	return len(p), nil
}

// TestResumeAfterKillByteIdentity: interrupt a campaign after two jobs,
// resume it, and require (a) the finished jobs are not recomputed and
// (b) the final outputs are byte-identical to an uninterrupted run.
func TestResumeAfterKillByteIdentity(t *testing.T) {
	// Reference: uninterrupted run, separate cache so nothing leaks
	// between the two campaigns.
	refOut := filepath.Join(t.TempDir(), "ref")
	ref := &Runner{Out: refOut, Cache: cache.New(filepath.Join(t.TempDir(), "refcache"))}
	if _, err := ref.Run(fastSpec()); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "out")
	stopper := guard.NewStopper()
	interrupted := &Runner{
		Out:     out,
		Workers: 1,
		Stop:    stopper,
		Log:     &stopAfter{stop: stopper, n: 2},
	}
	rep, err := interrupted.Run(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("interrupted run not marked truncated")
	}
	if rep.Done >= rep.Total {
		t.Fatalf("interruption did not interrupt: %d/%d done", rep.Done, rep.Total)
	}

	// The checkpointed manifest lists exactly the finished jobs.
	m, err := LoadManifest(filepath.Join(out, "manifest.json"))
	if err != nil || m == nil {
		t.Fatalf("manifest after kill: %v %v", m, err)
	}
	if len(m.Jobs) != rep.Done {
		t.Fatalf("manifest has %d jobs, run reported %d done", len(m.Jobs), rep.Done)
	}

	resumed := &Runner{Out: out, Resume: true}
	rep2, err := resumed.Run(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != rep.Done {
		t.Fatalf("resumed %d jobs, want %d", rep2.Resumed, rep.Done)
	}
	if rep2.Executed != rep2.Total-rep.Done {
		t.Fatalf("resume recomputed finished work: executed %d, want %d", rep2.Executed, rep2.Total-rep.Done)
	}
	if rep2.Truncated || rep2.Failed > 0 {
		t.Fatalf("resume did not complete: %+v", rep2)
	}

	rRef, aRef := readOutputs(t, refOut)
	rGot, aGot := readOutputs(t, out)
	if !bytes.Equal(rRef, rGot) {
		t.Fatalf("resumed report.txt diverged from uninterrupted run:\n%s\n---\n%s", rRef, rGot)
	}
	if !bytes.Equal(aRef, aGot) {
		t.Fatalf("resumed aggregate.json diverged from uninterrupted run")
	}
}

// TestResumeRefusesEditedSpec: the manifest's spec hash pins the job
// list; resuming under a changed campaign must fail, not mix artifacts.
func TestResumeRefusesEditedSpec(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	r := &Runner{Out: out}
	if _, err := r.Run(fastSpec()); err != nil {
		t.Fatal(err)
	}
	edited := fastSpec()
	edited.Experiments[0].Grid["cut_factor"] = []string{"0.9"}
	r2 := &Runner{Out: out, Resume: true}
	if _, err := r2.Run(edited); err == nil || !strings.Contains(err.Error(), "spec changed") {
		t.Fatalf("resume under edited spec: %v", err)
	}
}

// TestSerialParity: the orchestrator's fig7 artifact carries exactly
// the digests a direct serial harness run produces with the same model
// and parameters — parallel campaign execution is semantically
// invisible.
func TestSerialParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains (or loads) the shared congestion TPM; skipped with -short")
	}
	tpm, _, err := harness.TPMCongestion.Train(devrun.TPMCacheFromEnv(), 1000, 42)
	if err != nil {
		t.Fatal(err)
	}

	spec := &CampaignSpec{
		Name: "parity",
		Experiments: []ExperimentSpec{{
			Experiment: "fig7",
			Params:     map[string]string{"requests": "150", "seed": "7"},
		}},
	}
	out := filepath.Join(t.TempDir(), "out")
	r := &Runner{
		Out: out,
		TPM: func(kind harness.TPMKind) (*core.TPM, error) { return tpm, nil },
	}
	rep, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 1 {
		t.Fatalf("done %d", rep.Done)
	}

	b, err := os.ReadFile(filepath.Join(out, "jobs", "00-fig7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(b, &art); err != nil {
		t.Fatal(err)
	}

	// Direct serial run with identical inputs.
	exp, _ := harness.LookupExperiment("fig7")
	p, err := exp.Resolve(map[string]string{"requests": "150", "seed": "7"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.Run(&harness.Env{TPM: func(harness.TPMKind) (*core.TPM, error) { return tpm, nil }}, p)
	if err != nil {
		t.Fatal(err)
	}
	wantData, err := json.Marshal(want.Data)
	if err != nil {
		t.Fatal(err)
	}

	if art.Output.Text != want.Text {
		t.Fatalf("sweep text diverged from serial run:\n%s\n---\n%s", art.Output.Text, want.Text)
	}
	// The artifact encoder re-indents the raw data; compare canonically.
	var got bytes.Buffer
	if err := json.Compact(&got, art.Output.Data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantData) {
		t.Fatalf("sweep data diverged from serial run:\n%s\n---\n%s", got.Bytes(), wantData)
	}
}
