package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"srcsim/internal/atomicio"
	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/guard"
	"srcsim/internal/harness"
	"srcsim/internal/obs"
	"srcsim/internal/obs/live"
	"srcsim/internal/sweep/cache"
	"srcsim/internal/sweep/pool"
)

// jobSchemaVersion is baked into every job cache key; bump it whenever
// Payload's layout or any experiment's output semantics change, so
// stale cache entries miss instead of resurfacing.
const jobSchemaVersion = 1

// Payload is the cacheable part of one job's output: everything that is
// a pure function of (experiment, params, trained model). It carries no
// job ID or campaign context, so identical jobs across campaigns share
// one cache entry.
type Payload struct {
	// Text is the rendered figure/table, byte-identical to the serial
	// CLI's stdout for the same parameters.
	Text string `json:"text"`
	// Data is the experiment's machine-readable output.
	Data json.RawMessage `json:"data,omitempty"`
	// Metrics is the per-job registry snapshot with the wall-clock
	// "sim" profiling component stripped (it would break cache and
	// resume byte-identity).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Artifact is one job's on-disk record under <out>/jobs/<id>.json.
type Artifact struct {
	ID         string         `json:"id"`
	Experiment string         `json:"experiment"`
	Seed       uint64         `json:"seed"`
	Params     harness.Params `json:"params"`
	// Key is the job's content-address in the artifact cache.
	Key    string  `json:"key"`
	Output Payload `json:"output"`
}

// Report summarises one Run invocation. Counters describe this
// process's work (resumed jobs were skipped here, done in a previous
// one); the on-disk aggregate always covers the whole campaign.
type Report struct {
	Campaign  string
	SpecHash  string
	Total     int
	Done      int
	Failed    int
	Resumed   int
	CacheHits int
	Executed  int
	Truncated bool
	OutDir    string
}

// Runner executes campaigns. Zero value + Out is usable; all other
// fields are optional.
type Runner struct {
	// Out is the output directory (manifest, jobs/, report).
	Out string
	// Cache is the shared content-addressed artifact cache (nil = no
	// caching; TPM training and job outputs recompute every run).
	Cache *cache.Cache
	// Workers bounds job parallelism; 0 falls back to the campaign
	// spec, then GOMAXPROCS.
	Workers int
	// Stop cancels gracefully: running simulations drain at the next
	// event boundary, their partial output is discarded (the manifest
	// keeps them pending, so resume re-runs them), and the aggregate is
	// rebuilt from the jobs that did finish.
	Stop *guard.Stopper
	// Resume continues a prior run in Out: done jobs with artifacts on
	// disk are skipped, everything else re-runs. The manifest's spec
	// hash must match.
	Resume bool
	// Log receives human progress lines (nil = discarded).
	Log io.Writer
	// Board receives live campaign progress and an incrementally merged
	// metrics snapshot for the -serve inspector (nil = no publishing).
	Board *live.Board
	// ProgressPath overrides the progress.jsonl destination (machine-
	// readable job-transition log, appended atomically per event);
	// "" defaults to <out>/progress.jsonl.
	ProgressPath string
	// TPM overrides shared-model resolution (tests inject pre-trained
	// models); nil trains per the campaign spec, behind Cache.
	TPM func(kind harness.TPMKind) (*core.TPM, error)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// tpmMemo resolves each TPMKind at most once per campaign, even with
// many workers requesting models concurrently.
type tpmMemo struct {
	mu     sync.Mutex
	train  func(kind harness.TPMKind) (*core.TPM, error)
	models map[harness.TPMKind]*core.TPM
	errs   map[harness.TPMKind]error
}

func (m *tpmMemo) get(kind harness.TPMKind) (*core.TPM, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tpm, ok := m.models[kind]; ok {
		return tpm, nil
	}
	if err, ok := m.errs[kind]; ok {
		return nil, err
	}
	tpm, err := m.train(kind)
	if err != nil {
		m.errs[kind] = err
		return nil, err
	}
	m.models[kind] = tpm
	return tpm, nil
}

// SpecHash content-addresses the campaign spec; resume refuses a
// manifest whose hash differs (the job list may have changed).
func SpecHash(spec *CampaignSpec) string {
	return cache.Key("campaign", manifestVersion, spec)
}

// jobKey content-addresses one job's output: schema version, experiment
// name, the fully resolved params, and — for model-dependent
// experiments — the trained model's identity (kind, training inputs,
// feature-vector layout). The job ID is deliberately excluded.
func jobKey(exp *harness.Experiment, job Job, trainCount int, trainSeed uint64) string {
	var tpmPart []any
	if exp.TPM != harness.TPMNone {
		tpmPart = []any{exp.TPM.String(), trainCount, trainSeed, core.NumFeatures}
	}
	return cache.Key("job", jobSchemaVersion, job.Experiment, job.Params, tpmPart)
}

// Run expands and executes the campaign, returning the run report. Job
// failures do not abort the campaign (they are recorded in the manifest
// and counted); infrastructure errors — unreadable spec, unwritable
// output directory — do.
func (r *Runner) Run(spec *CampaignSpec) (*Report, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	specHash := SpecHash(spec)

	if r.Out == "" {
		return nil, fmt.Errorf("sweep: runner needs an output directory")
	}
	jobsDir := filepath.Join(r.Out, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, err
	}
	manifestPath := filepath.Join(r.Out, "manifest.json")

	manifest := &Manifest{
		Version:  manifestVersion,
		Campaign: spec.Name,
		SpecHash: specHash,
		Jobs:     map[string]*JobState{},
	}
	if r.Resume {
		prev, err := LoadManifest(manifestPath)
		if err != nil {
			return nil, err
		}
		if prev != nil {
			if prev.SpecHash != specHash {
				return nil, fmt.Errorf("sweep: cannot resume: campaign spec changed (manifest hash %.12s, spec hash %.12s)",
					prev.SpecHash, specHash)
			}
			manifest = prev
		}
	}

	train := r.TPM
	if train == nil {
		count, seed := spec.trainCount(), spec.trainSeed()
		train = func(kind harness.TPMKind) (*core.TPM, error) {
			r.logf("sweep: training %v TPM (count %d, seed %d)...", kind, count, seed)
			tpm, hit, err := kind.Train(r.Cache, count, seed)
			if err == nil && hit {
				r.logf("sweep: reused cached %v TPM", kind)
			}
			return tpm, err
		}
	}
	memo := &tpmMemo{
		train:  train,
		models: map[harness.TPMKind]*core.TPM{},
		errs:   map[harness.TPMKind]error{},
	}

	rep := &Report{
		Campaign: spec.Name,
		SpecHash: specHash,
		Total:    len(jobs),
		OutDir:   r.Out,
	}
	var mu sync.Mutex // guards manifest, rep counters, and manifest writes

	workers := r.Workers
	if workers == 0 {
		workers = spec.Workers
	}
	r.logf("sweep: campaign %s: %d jobs", spec.Name, len(jobs))

	progressPath := r.ProgressPath
	if progressPath == "" {
		progressPath = filepath.Join(r.Out, "progress.jsonl")
	}
	prog, err := newProgressTracker(progressPath, spec.Name, len(jobs), workers, r.Board)
	if err != nil {
		return nil, err
	}
	defer prog.close()

	// liveSnaps feeds the inspector's /metrics an incrementally merged
	// view in completion order; the on-disk metrics.json is rebuilt in
	// job order by aggregate() and stays deterministic.
	var liveSnaps []obs.Snapshot

	p := pool.Pool{Workers: workers, Stop: r.Stop}
	poolErr := p.ForEach(len(jobs), func(i int) error {
		job := jobs[i]
		exp, _ := harness.LookupExperiment(job.Experiment)
		key := jobKey(exp, job, spec.trainCount(), spec.trainSeed())
		artRel := filepath.Join("jobs", job.ID+".json")
		artPath := filepath.Join(jobsDir, job.ID+".json")

		// Resume: a done job whose artifact survived needs no work.
		mu.Lock()
		st := manifest.Jobs[job.ID]
		mu.Unlock()
		if r.Resume && st != nil && st.Status == "done" && st.Key == key {
			if _, err := os.Stat(artPath); err == nil {
				mu.Lock()
				rep.Resumed++
				mu.Unlock()
				prog.jobResumed(job.ID)
				r.logf("sweep: %s resumed (already done)", job.ID)
				return nil
			}
		}

		prog.jobStarted(job.ID)
		jobStart := time.Now()
		payload, hit, runErr := r.runJob(exp, job, key, memo)
		wall := time.Since(jobStart)
		if payload == nil && runErr == nil {
			// Cancelled before or during the run: leave the job pending
			// for resume.
			prog.jobAbandoned(job.ID)
			return nil
		}

		mu.Lock()
		defer mu.Unlock()
		rep.Executed++
		if runErr != nil {
			rep.Failed++
			manifest.Jobs[job.ID] = &JobState{Key: key, Status: "failed", Error: runErr.Error()}
			prog.jobFinished(job.ID, false, false, wall)
			r.logf("sweep: %s FAILED: %v", job.ID, runErr)
			return manifest.write(manifestPath)
		}
		art := Artifact{
			ID:         job.ID,
			Experiment: job.Experiment,
			Seed:       job.Seed,
			Params:     job.Params,
			Key:        key,
			Output:     *payload,
		}
		if err := atomicio.WriteFile(artPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(art)
		}); err != nil {
			return err
		}
		rep.Done++
		if hit {
			rep.CacheHits++
			r.logf("sweep: %s done (cache hit)", job.ID)
		} else {
			r.logf("sweep: %s done", job.ID)
		}
		prog.jobFinished(job.ID, true, hit, wall)
		if r.Board != nil && payload.Metrics != nil {
			liveSnaps = append(liveSnaps, *payload.Metrics)
			r.Board.PublishSnapshot(obs.MergeSnapshots(liveSnaps...))
		}
		manifest.Jobs[job.ID] = &JobState{Key: key, Status: "done", Artifact: artRel}
		return manifest.write(manifestPath)
	})
	if poolErr != nil {
		return rep, poolErr
	}

	if r.Stop != nil && r.Stop.Stopped() {
		rep.Truncated = true
	}
	if err := r.aggregate(spec, specHash, jobs, manifest); err != nil {
		return rep, err
	}
	return rep, nil
}

// runJob resolves one job's payload: cache hit, or a live run of the
// registered experiment. A nil payload with nil error means the run was
// cancelled mid-flight and must stay pending.
func (r *Runner) runJob(exp *harness.Experiment, job Job, key string, memo *tpmMemo) (*Payload, bool, error) {
	if b, ok := r.Cache.Get(key); ok {
		var p Payload
		if err := json.Unmarshal(b, &p); err == nil {
			return &p, true, nil
		}
		// Corrupt entry: fall through and recompute (Put overwrites).
	}

	if r.Stop != nil && r.Stop.Stopped() {
		return nil, false, nil
	}

	reg := obs.NewRegistry()
	env := &harness.Env{
		TPM: memo.get,
		Mods: []func(*cluster.Spec){func(s *cluster.Spec) {
			s.Metrics = reg
			if r.Stop != nil {
				s.Guard.Stop = r.Stop
			}
		}},
	}
	out, err := exp.Run(env, job.Params)
	if err != nil {
		return nil, false, err
	}
	if r.Stop != nil && r.Stop.Stopped() {
		// The simulation drained early; its truncated output must not
		// enter the cache or the artifact tree.
		return nil, false, nil
	}

	data, err := json.Marshal(out.Data)
	if err != nil {
		return nil, false, fmt.Errorf("sweep: %s: marshal data: %w", job.ID, err)
	}
	p := &Payload{Text: out.Text, Data: data}
	if snap := reg.Snapshot().WithoutComponent("sim"); snap.NumSeries() > 0 {
		p.Metrics = &snap
	}

	if err := r.Cache.Put(key, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(p)
	}); err != nil {
		return nil, false, err
	}
	return p, false, nil
}

// aggregate rebuilds the campaign-level outputs — report.txt,
// aggregate.json, metrics.json — from the per-job artifact files, in
// job-ID (expansion) order, every run. They carry no timestamps or
// run-local counters, so a resumed campaign reproduces the
// uninterrupted run's bytes exactly.
func (r *Runner) aggregate(spec *CampaignSpec, specHash string, jobs []Job, manifest *Manifest) error {
	var arts []Artifact
	var failed []string
	for _, job := range jobs {
		st := manifest.Jobs[job.ID]
		if st == nil {
			continue
		}
		if st.Status == "failed" {
			failed = append(failed, job.ID)
			continue
		}
		b, err := os.ReadFile(filepath.Join(r.Out, st.Artifact))
		if err != nil {
			return fmt.Errorf("sweep: aggregate: %w", err)
		}
		var art Artifact
		if err := json.Unmarshal(b, &art); err != nil {
			return fmt.Errorf("sweep: aggregate %s: %w", st.Artifact, err)
		}
		arts = append(arts, art)
	}

	// report.txt: every finished job's rendered figure/table.
	var rep strings.Builder
	fmt.Fprintf(&rep, "campaign %s\nspec %s\n", spec.Name, specHash)
	for _, art := range arts {
		fmt.Fprintf(&rep, "\n== %s %s %s\n", art.ID, art.Experiment, formatParams(art.Params))
		rep.WriteString(art.Output.Text)
	}
	for _, id := range failed {
		fmt.Fprintf(&rep, "\n== %s FAILED: %s\n", id, manifest.Jobs[id].Error)
	}
	if err := atomicio.WriteFile(filepath.Join(r.Out, "report.txt"), func(w io.Writer) error {
		_, err := io.WriteString(w, rep.String())
		return err
	}); err != nil {
		return err
	}

	// aggregate.json: the machine-readable campaign record.
	agg := struct {
		Campaign string     `json:"campaign"`
		SpecHash string     `json:"spec_hash"`
		Jobs     []Artifact `json:"jobs"`
		Failed   []string   `json:"failed,omitempty"`
	}{spec.Name, specHash, arts, failed}
	if err := atomicio.WriteFile(filepath.Join(r.Out, "aggregate.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(agg)
	}); err != nil {
		return err
	}

	// metrics.json: cross-job merged registry snapshot, merge in job
	// order (the quantile merge is order-sensitive; see obs).
	var snaps []obs.Snapshot
	for _, art := range arts {
		if art.Output.Metrics != nil {
			snaps = append(snaps, *art.Output.Metrics)
		}
	}
	if len(snaps) > 0 {
		merged := obs.MergeSnapshots(snaps...)
		// The inspector's final /metrics view matches metrics.json
		// exactly (job order), replacing the completion-order estimate.
		r.Board.PublishSnapshot(merged)
		if err := atomicio.WriteFile(filepath.Join(r.Out, "metrics.json"), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(merged)
		}); err != nil {
			return err
		}
	}
	return nil
}

// formatParams renders a resolved parameter set with sorted keys.
func formatParams(p harness.Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, p[k])
	}
	b.WriteByte('}')
	return b.String()
}
