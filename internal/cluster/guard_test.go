package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"srcsim/internal/guard"
	"srcsim/internal/sim"
)

// TestGuardFullyArmedMatchesGolden is the pure-observer regression: a
// fault-free run with every guard mechanism armed (auditor, watchdog,
// an unfired stopper) must stay byte-identical to the unguarded golden
// summary. Audits and watchdog checks are read-only, so arming them can
// never perturb a run's result.
func TestGuardFullyArmedMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/summary_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	armed := runSummaryJSON(t, func(s *Spec) {
		s.Guard = guard.Config{
			Audit:        true,
			StallHorizon: 500 * sim.Millisecond,
			Stop:         guard.NewStopper(),
		}
	})
	if !bytes.Equal(armed, golden) {
		t.Fatalf("armed guard perturbed the run:\ngolden: %s\ngot:    %s", golden, armed)
	}
}

// TestAuditCatchesCreditLeak injects a TXQ credit leak mid-run and
// requires the conservation auditor to fail the run within one audit
// period of the leak.
func TestAuditCatchesCreditLeak(t *testing.T) {
	spec := congestionSpec()
	spec.Guard = guard.Config{Audit: true, AuditEvery: sim.Millisecond}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	const leakAt = 3 * sim.Millisecond
	c.Eng.Schedule(leakAt, func() { c.Targets[0].T.InjectCreditLeak(4 << 10) })
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err == nil {
		t.Fatal("leaked credit went undetected")
	}
	if res != nil {
		t.Fatal("failed run still returned a result")
	}
	var ve *guard.ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("error type %T, want *guard.ViolationError", err)
	}
	if !strings.Contains(err.Error(), "txq-credit-conservation") {
		t.Fatalf("violation does not name the leaked invariant: %v", err)
	}
	if ve.At < leakAt || ve.At > leakAt+spec.Guard.AuditEvery {
		t.Fatalf("leak at %v caught at %v, want within one audit period (%v)",
			leakAt, ve.At, spec.Guard.AuditEvery)
	}
}

// TestStopperMidRunTruncates fires the cancellation handle from a
// scheduled sim event (the deterministic analogue of a SIGINT): the run
// must drain at the next interrupt boundary and return a partial result
// marked truncated, with a valid JSON summary — byte-identically across
// repeats.
func TestStopperMidRunTruncates(t *testing.T) {
	run := func() []byte {
		t.Helper()
		spec := congestionSpec()
		st := guard.NewStopper()
		spec.Guard = guard.Config{Stop: st, InterruptEvery: 64}
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		c.Eng.Schedule(3*sim.Millisecond, func() { st.Stop("test interrupt") })
		res, err := c.Run(vdiTrace(t, 300), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated || res.TruncateReason != "test interrupt" {
			t.Fatalf("Truncated=%v reason=%q, want truncation by the stopper",
				res.Truncated, res.TruncateReason)
		}
		if res.Completed >= res.Submitted {
			t.Fatalf("truncation at 3ms should leave work undone: %d/%d",
				res.Completed, res.Submitted)
		}
		b, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run()
	var sum struct {
		Truncated      bool   `json:"truncated"`
		TruncateReason string `json:"truncate_reason"`
		Completed      int    `json:"completed"`
		Submitted      int    `json:"submitted"`
	}
	if err := json.Unmarshal(a, &sum); err != nil {
		t.Fatalf("truncated summary is not valid JSON: %v\n%s", err, a)
	}
	if !sum.Truncated || sum.TruncateReason != "test interrupt" {
		t.Fatalf("summary JSON truncation fields: %+v", sum)
	}
	if b := run(); !bytes.Equal(a, b) {
		t.Fatalf("deterministic stop produced differing summaries:\n%s\nvs\n%s", a, b)
	}
}

// TestPreFiredStopperTruncatesImmediately: a stopper that fired before
// Run (SIGINT between runs of a multi-run experiment) truncates the run
// before its first event.
func TestPreFiredStopperTruncatesImmediately(t *testing.T) {
	spec := congestionSpec()
	st := guard.NewStopper()
	st.Stop("signal: interrupt")
	spec.Guard = guard.Config{Stop: st}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Completed != 0 {
		t.Fatalf("pre-fired stopper: Truncated=%v Completed=%d", res.Truncated, res.Completed)
	}
	if res.TruncateReason != "signal: interrupt" {
		t.Fatalf("reason %q", res.TruncateReason)
	}
}

// TestWallBudgetTruncates arms an already-exhausted wall budget: the
// run must come back truncated (not failed) with the ledger intact.
func TestWallBudgetTruncates(t *testing.T) {
	spec := congestionSpec()
	spec.Guard = guard.Config{WallBudget: time.Nanosecond, InterruptEvery: 64}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("exhausted wall budget did not truncate the run")
	}
	if !strings.Contains(res.TruncateReason, "wall budget") {
		t.Fatalf("reason %q", res.TruncateReason)
	}
	if res.Completed > res.Submitted {
		t.Fatalf("ledger inconsistent after truncation: %d/%d", res.Completed, res.Submitted)
	}
}
