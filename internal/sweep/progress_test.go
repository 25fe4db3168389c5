package sweep

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/harness"
	"srcsim/internal/obs/live"
)

// readProgress parses every progress.jsonl line, failing on any torn or
// invalid line — the file is appended one whole line at a time.
func readProgress(t *testing.T, dir string) []progressEvent {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "progress.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var evs []progressEvent
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev progressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad progress line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestProgressLog: a campaign writes progress.jsonl by default — one
// start and one done event per job, monotone counters, and a final
// state accounting for every job — and publishes the same data to the
// live board.
func TestProgressLog(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	board := live.NewBoard()
	r := &Runner{Out: out, Board: board}
	rep, err := r.Run(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed > 0 {
		t.Fatalf("failed jobs: %d", rep.Failed)
	}

	evs := readProgress(t, out)
	starts, dones := map[string]int{}, map[string]int{}
	lastDone := 0
	for _, ev := range evs {
		switch ev.Event {
		case "start":
			starts[ev.Job]++
			if dones[ev.Job] > 0 {
				t.Fatalf("%s started after done", ev.Job)
			}
		case "done":
			dones[ev.Job]++
		default:
			t.Fatalf("unexpected event %q", ev.Event)
		}
		if ev.Done < lastDone {
			t.Fatalf("done counter went backwards: %d -> %d", lastDone, ev.Done)
		}
		lastDone = ev.Done
		if ev.Total != rep.Total {
			t.Fatalf("event total %d, want %d", ev.Total, rep.Total)
		}
	}
	if len(starts) != rep.Total || len(dones) != rep.Total {
		t.Fatalf("saw %d starts / %d dones for %d jobs", len(starts), len(dones), rep.Total)
	}
	for id, n := range dones {
		if n != 1 || starts[id] != 1 {
			t.Fatalf("job %s: %d starts, %d dones", id, starts[id], n)
		}
	}
	last := evs[len(evs)-1]
	if last.Done != rep.Total || last.Pending != 0 || len(last.Running) != 0 {
		t.Fatalf("final state: %+v", last.CampaignProgress)
	}

	// The board carries the same final progress. (fastSpec's analytic
	// jobs produce no metrics snapshots; TestBoardMergedMetrics covers
	// the /metrics path with a cluster experiment.)
	bp, ok := board.Progress()
	if !ok || bp.Done != rep.Total {
		t.Fatalf("board progress: %+v (ok=%v)", bp, ok)
	}
}

// TestBoardMergedMetrics: cluster experiments publish their merged
// registry snapshots to the live board as jobs complete.
func TestBoardMergedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains (or loads) the shared congestion TPM; skipped with -short")
	}
	tpm, _, err := harness.TPMCongestion.Train(devrun.TPMCacheFromEnv(), 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	spec := &CampaignSpec{
		Name: "board",
		Experiments: []ExperimentSpec{{
			Experiment: "fig7",
			Params:     map[string]string{"requests": "150", "seed": "7"},
		}},
	}
	board := live.NewBoard()
	r := &Runner{
		Out:   filepath.Join(t.TempDir(), "out"),
		Board: board,
		TPM:   func(kind harness.TPMKind) (*core.TPM, error) { return tpm, nil },
	}
	rep, err := r.Run(spec)
	if err != nil || rep.Done != 1 {
		t.Fatalf("run: %v (done %d)", err, rep.Done)
	}
	snap := board.Snapshot()
	if snap.NumSeries() == 0 {
		t.Fatal("board has no merged metrics snapshot")
	}
	// The published snapshot must match the on-disk metrics.json view:
	// no run-local "sim" profiling component.
	for k := range snap.Counters {
		if strings.HasPrefix(k, "sim/") {
			t.Fatalf("board snapshot leaked profiling series %q", k)
		}
	}
}

// TestProgressResumeEvents: resuming appends to the same file and marks
// previously finished jobs as resumed, with an accurate final state.
func TestProgressResumeEvents(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	r := &Runner{Out: out}
	rep, err := r.Run(fastSpec())
	if err != nil || rep.Failed > 0 {
		t.Fatalf("run: %v (failed %d)", err, rep.Failed)
	}
	firstLines := len(readProgress(t, out))

	r2 := &Runner{Out: out, Resume: true}
	rep2, err := r2.Run(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != rep.Total {
		t.Fatalf("resumed %d, want %d", rep2.Resumed, rep.Total)
	}

	evs := readProgress(t, out)
	resumed := 0
	for _, ev := range evs[firstLines:] {
		if ev.Event != "resumed" {
			t.Fatalf("unexpected event on resume: %q", ev.Event)
		}
		resumed++
	}
	if resumed != rep.Total {
		t.Fatalf("%d resumed events, want %d", resumed, rep.Total)
	}
	last := evs[len(evs)-1]
	if last.Resumed != rep.Total || last.Pending != 0 {
		t.Fatalf("final resumed state: %+v", last.CampaignProgress)
	}
}

// TestProgressETA: the ETA extrapolates from executed-job wall times;
// it must appear once a non-cached job completes with jobs remaining.
func TestProgressETA(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	r := &Runner{Out: out, Workers: 1}
	if rep, err := r.Run(fastSpec()); err != nil || rep.Failed > 0 {
		t.Fatalf("run: %v", err)
	}
	evs := readProgress(t, out)
	sawEta := false
	for _, ev := range evs {
		if ev.Event == "done" && ev.Pending+len(ev.Running) > 0 && ev.EtaMs > 0 {
			sawEta = true
		}
	}
	if !sawEta {
		t.Fatal("no mid-campaign ETA recorded")
	}
}
