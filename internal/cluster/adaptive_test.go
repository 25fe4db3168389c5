package cluster

// Summary-shape tests for the adaptive ladder ledger (ISSUE 7
// satellite 6, cluster side): with adaptation off, summaries must not
// contain any ladder/adapt key — the pre-adaptive JSON shape is golden
// — and an armed run that transitions must surface its ledger.

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"srcsim/internal/core"
	"srcsim/internal/ctrlplane"
	"srcsim/internal/faults"
	"srcsim/internal/guard"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// TestSummaryShapeWithoutAdaptation: a DCQCN-SRC run with adaptation
// disabled must marshal without any adaptive key, byte-preserving the
// pre-adaptive golden shape.
func TestSummaryShapeWithoutAdaptation(t *testing.T) {
	spec := congestionSpec()
	spec.Mode = DCQCNSRC
	spec.TPM = sharedTPM(t)
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"ladder"`, `"adapt_`} {
		if strings.Contains(string(b), key) {
			t.Errorf("adaptation-off summary contains %s:\n%s", key, b)
		}
	}
	if res.Ladder != nil || res.Retrains != 0 || res.AdaptRecovered {
		t.Errorf("adaptation-off result carries ladder state: %+v %d %v",
			res.Ladder, res.Retrains, res.AdaptRecovered)
	}
}

// TestSummaryLedgerWithAdaptation: arming the ladder with a
// hair-trigger staleness watchdog forces a Static descent, which must
// appear in the summary's ladder ledger (and therefore in its JSON) and
// in the core/degraded_entries series.
func TestSummaryLedgerWithAdaptation(t *testing.T) {
	spec := congestionSpec()
	spec.Mode = DCQCNSRC
	spec.TPM = sharedTPM(t)
	spec.Metrics = obs.NewRegistry()
	spec.SRC.StaleAfter = sim.Nanosecond
	spec.SRC.Adaptive = core.AdaptiveConfig{
		Enabled:      true,
		ObserveEvery: 100 * sim.Microsecond,
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ladder) == 0 {
		t.Fatal("hair-trigger staleness produced no ladder transitions")
	}
	if res.Ladder[0].To != core.LadderStatic.String() {
		t.Fatalf("first transition %+v, want a Static descent", res.Ladder[0])
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"ladder"`)) {
		t.Fatalf("adaptive summary lost its ladder ledger: %s", b)
	}
	if got := res.Completed + res.Failed; got != res.Submitted {
		t.Fatalf("accounting leak under adaptation: %d+%d != %d", res.Completed, res.Failed, res.Submitted)
	}
	if got := spec.Metrics.Snapshot().Counters["core/degraded_entries{mode=DCQCN-SRC}"]; got < 1 {
		t.Fatalf("Static descent not counted: core/degraded_entries = %g", got)
	}
}

// TestAdaptCtrlTelemetryStall runs the three degraded-mode inputs
// together: adaptive SRC behind the in-band control plane, with a
// telemetry-stall fault on one target, the staleness watchdog armed and
// the conservation auditor on. The stall must descend that target's
// ladder to Static, the Static series must agree with the ledger, the
// accounting must close, and the run must replay byte for byte.
func TestAdaptCtrlTelemetryStall(t *testing.T) {
	run := func() (*Result, *obs.Registry) {
		spec := congestionSpec()
		spec.Mode = DCQCNSRC
		spec.TPM = sharedTPM(t)
		spec.Metrics = obs.NewRegistry()
		spec.Ctrl = ctrlplane.Config{Enabled: true}
		spec.SRC.StaleAfter = sim.Millisecond
		spec.SRC.FallbackWeight = 8
		spec.SRC.Adaptive = core.AdaptiveConfig{Enabled: true, ObserveEvery: 100 * sim.Microsecond}
		spec.Guard = guard.Config{Audit: true, AuditEvery: sim.Millisecond}
		spec.Faults = &faults.Schedule{Events: []faults.Event{
			{At: 2 * sim.Millisecond, Kind: faults.TelemetryStall, Where: "target:0", Duration: 3 * sim.Millisecond},
		}}
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(vdiTrace(t, 300), nil)
		if err != nil {
			var ve *guard.ViolationError
			if errors.As(err, &ve) {
				t.Fatalf("conservation violated: %v", ve)
			}
			t.Fatal(err)
		}
		return res, spec.Metrics
	}

	res, reg := run()
	if got := res.Completed + res.Failed; got != res.Submitted {
		t.Fatalf("accounting leak: %d+%d != %d", res.Completed, res.Failed, res.Submitted)
	}
	descents := 0
	stalled := false
	for _, st := range res.Ladder {
		if st.To != core.LadderStatic.String() {
			continue
		}
		descents++
		stalled = stalled || (st.Target == 0 && st.Reason == "telemetry-stale")
	}
	if !stalled {
		t.Fatalf("telemetry stall produced no telemetry-stale Static descent on target 0: %+v", res.Ladder)
	}
	if got := reg.Snapshot().Counters["core/degraded_entries{mode=DCQCN-SRC}"]; got != float64(descents) {
		t.Fatalf("core/degraded_entries = %g, ledger has %d Static descents", got, descents)
	}

	res2, _ := run()
	b1, err := json.Marshal(res.Digest())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(res2.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("adaptive + ctrl + stall run is not deterministic:\n%s\n%s", b1, b2)
	}
}
