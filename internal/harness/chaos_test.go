package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestChaosSoakAccounting is the chaos acceptance run: under link flaps,
// 1% drop, and a PFC storm, the run must complete without panic, every
// submitted op must be accounted for, and the recovery machinery must
// demonstrably have fired.
func TestChaosSoakAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; skipped with -short")
	}
	tr, err := VDITrace(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ChaosSoak(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Failed != res.Submitted {
		t.Fatalf("accounting broken: completed %d + failed %d != submitted %d",
			res.Completed, res.Failed, res.Submitted)
	}
	if res.FaultsInjected == 0 {
		t.Fatal("no faults injected")
	}
	if res.DroppedPackets == 0 {
		t.Fatal("1%% drop schedule dropped nothing")
	}
	if res.Timeouts == 0 || res.Retries == 0 {
		t.Fatalf("recovery never fired: timeouts=%d retries=%d", res.Timeouts, res.Retries)
	}
	if res.LinkDowns != 3 {
		t.Fatalf("link flaps: got %d downs, want 3", res.LinkDowns)
	}
	if res.ForcedPauses == 0 {
		t.Fatal("PFC storm never forced a pause")
	}
	if res.WatchdogTrips == 0 {
		t.Fatal("PFC watchdog never tripped during the storm")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed under chaos")
	}
}

// TestChaosSoakDeterministic re-runs the identical chaos scenario and
// requires byte-identical summaries: fault injection must be as
// reproducible as the fault-free simulator.
func TestChaosSoakDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak, twice; skipped with -short")
	}
	run := func() []byte {
		t.Helper()
		tr, err := VDITrace(7, 500)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ChaosSoak(tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("chaos run not deterministic:\nfirst:  %s\nsecond: %s", a, b)
	}
}
