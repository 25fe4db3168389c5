package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"srcsim/internal/obs"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/sim"
)

// runSummaryJSON builds a fresh congestion cluster (DCQCN-SRC with the
// fake TPM), runs the standard VDI trace, and returns the Summary JSON.
func runSummaryJSON(t *testing.T, mod func(*Spec)) []byte {
	t.Helper()
	spec := congestionSpec()
	spec.Mode = DCQCNSRC
	spec.TPM = fakeTPM(t)
	if mod != nil {
		mod(&spec)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Indented like testdata/summary_golden.json.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res.Summary); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracingDoesNotPerturbRuns is the determinism regression: a seeded
// run with tracing and progress reporting enabled must produce a
// byte-identical Result summary to the same run with both disabled.
func TestTracingDoesNotPerturbRuns(t *testing.T) {
	plain := runSummaryJSON(t, nil)
	var progress bytes.Buffer
	traced := runSummaryJSON(t, func(s *Spec) {
		s.Trace = obs.NewTracer(0)
		s.Progress = &progress
		s.ProgressEvery = sim.Millisecond
	})
	if !bytes.Equal(plain, traced) {
		t.Fatalf("tracing perturbed the run:\nplain:  %s\ntraced: %s", plain, traced)
	}
	if progress.Len() == 0 {
		t.Fatal("no progress output")
	}
	if !strings.Contains(progress.String(), "srcsim: [DCQCN-SRC]") {
		t.Fatalf("progress line malformed: %q", progress.String())
	}
}

// TestMetricsSnapshotCoverage checks the acceptance floor: an
// instrumented run produces at least 15 distinct metric series spanning
// the instrumented components.
func TestMetricsSnapshotCoverage(t *testing.T) {
	reg := obs.NewRegistry()
	runSummaryJSON(t, func(s *Spec) {
		s.Metrics = reg
	})

	snap := reg.Snapshot()
	if n := snap.NumSeries(); n < 15 {
		t.Fatalf("want >= 15 metric series, got %d", n)
	}
	components := map[string]bool{}
	collect := func(keys ...string) {
		for _, k := range keys {
			if i := strings.IndexByte(k, '/'); i > 0 {
				components[k[:i]] = true
			}
		}
	}
	for k := range snap.Counters {
		collect(k)
	}
	for k := range snap.Gauges {
		collect(k)
	}
	for k := range snap.Histograms {
		collect(k)
	}
	for _, want := range []string{"netsim", "dcqcn", "nvme", "ssd", "nvmeof", "core", "sim"} {
		if !components[want] {
			t.Errorf("no metric series from component %q (have %v)", want, components)
		}
	}
}

// TestTraceComponentCoverage checks that a traced run emits events from
// at least 4 components and that the Chrome export is valid JSON in
// trace-event format.
func TestTraceComponentCoverage(t *testing.T) {
	tr := obs.NewTracer(0)
	runSummaryJSON(t, func(s *Spec) {
		s.Trace = tr
	})

	tracks := map[string]bool{}
	for _, ev := range tr.Events() {
		tracks[ev.Track] = true
	}
	for _, want := range []string{"netsim", "dcqcn", "ssd", "core"} {
		if !tracks[want] {
			t.Errorf("no trace events on track %q (have %v)", want, tracks)
		}
	}
	if len(tracks) < 4 {
		t.Fatalf("want events from >= 4 components, got %v", tracks)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty chrome trace")
	}
	phases := map[string]bool{}
	var meta int
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph] = true
		if ev.Ph == "M" {
			meta++
		}
	}
	if meta == 0 {
		t.Fatal("no process/thread metadata events")
	}
	for ph := range phases {
		switch ph {
		case "M", "i", "X", "C":
		default:
			t.Fatalf("unexpected trace phase %q", ph)
		}
	}
}

// TestRecorderWithoutRegistry: a recorder alone gets each run a private
// registry — the layers' series reach the recorder under per-mode
// tracks, but engine profiling (wall-clock data) stays off.
func TestRecorderWithoutRegistry(t *testing.T) {
	rec := timeseries.New(10*sim.Microsecond, 0)
	tr := vdiTrace(t, 500)
	for _, mode := range []Mode{DCQCNOnly, DCQCNSRC} {
		spec := congestionSpec()
		spec.Mode, spec.TPM, spec.Recorder = mode, fakeTPM(t), rec
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(tr, nil); err != nil {
			t.Fatal(err)
		}
		if c.Eng.ProfilingEnabled() {
			t.Errorf("%v: engine profiling on without Spec.Metrics", mode)
		}
	}
	ecn := map[string]bool{}
	for _, s := range rec.Dump(0) {
		if s.Name == "ecn_marks" && len(s.V) > 0 {
			ecn[s.Track] = true
		}
	}
	if !ecn["DCQCN-Only/netsim"] || !ecn["DCQCN-SRC/netsim"] {
		t.Fatalf("ECN activity per mode track: %v", ecn)
	}
}
