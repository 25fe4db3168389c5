package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"srcsim/internal/cluster"
	"srcsim/internal/guard"
	"srcsim/internal/netsim"
)

// TestHangSoakTripsWatchdog is the watchdog acceptance demo: both
// targets freeze with no recovery armed, the cluster wedges, and the
// liveness watchdog must convert the hang into a typed StallError whose
// dump names the stuck commands.
func TestHangSoakTripsWatchdog(t *testing.T) {
	tr, err := VDITrace(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HangSoak(tr, false)
	if err == nil {
		t.Fatal("hung run returned no error")
	}
	if res != nil {
		t.Fatal("hung run still returned a result")
	}
	var se *guard.StallError
	if !errors.As(err, &se) {
		t.Fatalf("error type %T, want *guard.StallError", err)
	}
	if se.Axis != "sim-time" {
		t.Fatalf("stall axis %q, want sim-time", se.Axis)
	}
	d := se.Dump
	if d == nil {
		t.Fatal("stall error carries no dump")
	}
	if d.InFlightTotal == 0 || len(d.InFlight) == 0 {
		t.Fatalf("dump census empty: total=%d listed=%d", d.InFlightTotal, len(d.InFlight))
	}
	if d.OldestAge <= HangStallHorizon {
		t.Fatalf("oldest age %v should exceed the horizon %v", d.OldestAge, HangStallHorizon)
	}
	// The census names concrete stuck commands, oldest first.
	prev := d.InFlight[0]
	if prev.Age != d.OldestAge {
		t.Fatalf("first census entry age %v != oldest age %v", prev.Age, d.OldestAge)
	}
	for _, ci := range d.InFlight[1:] {
		if ci.SubmittedAt < prev.SubmittedAt {
			t.Fatalf("census not oldest-first: %v before %v", prev.SubmittedAt, ci.SubmittedAt)
		}
		prev = ci
	}
	// The per-target census must reflect the wedge: commands queued at
	// targets with their devices fetching nothing.
	var queued int
	for _, ts := range d.Targets {
		queued += ts.Inflight
	}
	if queued == 0 {
		t.Fatalf("no commands queued at stalled targets:\n%s", d)
	}
}

// TestHangSoakDeterministic requires the watchdog trip itself — error
// text and full diagnostic dump — to be byte-identical across two runs.
func TestHangSoakDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("hang soak; skipped with -short")
	}
	run := func() []byte {
		t.Helper()
		tr, err := VDITrace(7, 300)
		if err != nil {
			t.Fatal(err)
		}
		_, err = HangSoak(tr, false)
		var se *guard.StallError
		if !errors.As(err, &se) {
			t.Fatalf("expected stall error, got %v", err)
		}
		var buf bytes.Buffer
		buf.WriteString(se.Error())
		buf.WriteByte('\n')
		if _, err := se.Dump.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("watchdog trip not deterministic:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// TestHangSoakRecoversWithRetries runs the identical stall schedule
// with the retry policy armed: every wedged command fails over inside
// the stall horizon, so the watchdog never trips and the run completes
// with full accounting.
func TestHangSoakRecoversWithRetries(t *testing.T) {
	tr, err := VDITrace(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HangSoak(tr, true)
	if err != nil {
		t.Fatalf("retry-armed hang soak failed: %v", err)
	}
	if res.Truncated {
		t.Fatal("retry-armed run came back truncated")
	}
	if res.Completed+res.Failed != res.Submitted {
		t.Fatalf("accounting broken: completed %d + failed %d != submitted %d",
			res.Completed, res.Failed, res.Submitted)
	}
	if res.Failed == 0 {
		t.Fatal("permanently stalled targets should fail commands over to the retry path")
	}
	if res.Retries == 0 || res.Timeouts == 0 {
		t.Fatalf("recovery never fired: retries=%d timeouts=%d", res.Retries, res.Timeouts)
	}
}

// TestFig7TruncatedEmitsValidJSON interrupts a fig7 run (the
// SIGINT-equivalent pre-fired stopper) and requires both partial
// summaries to parse as JSON with truncated: true and the artifact
// fields intact.
func TestFig7TruncatedEmitsValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("truncated full-scale Fig. 7 run; skipped with -short")
	}
	tpm, _ := testTPMs(t)
	st := guard.NewStopper()
	st.Stop("signal: interrupt")
	res, err := Fig7Throughput(tpm, 200, 7, netsim.CCDCQCN, func(s *cluster.Spec) {
		s.Guard.Stop = st
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*cluster.Result{res.Baseline, res.SRC} {
		b, err := json.Marshal(r.Summary)
		if err != nil {
			t.Fatal(err)
		}
		var sum struct {
			Truncated      bool   `json:"truncated"`
			TruncateReason string `json:"truncate_reason"`
			Mode           string `json:"mode"`
			Submitted      int    `json:"submitted"`
		}
		if err := json.Unmarshal(b, &sum); err != nil {
			t.Fatalf("truncated summary is not valid JSON: %v\n%s", err, b)
		}
		if !sum.Truncated {
			t.Fatalf("summary not marked truncated: %s", b)
		}
		if sum.TruncateReason != "signal: interrupt" {
			t.Fatalf("truncate_reason %q", sum.TruncateReason)
		}
		if sum.Mode == "" {
			t.Fatalf("summary lost its fields under truncation: %s", b)
		}
	}
}
