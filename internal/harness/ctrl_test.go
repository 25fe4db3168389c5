package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"srcsim/internal/cluster"
	"srcsim/internal/faults"
	"srcsim/internal/guard"
)

// TestCtrlFailoverArc runs the controller-crash experiment and checks
// the full epoch arc: boot, crash, lease expiries at the agents,
// standby takeover under a bumped epoch, reconvergence, and the fenced
// primary restart. The conservation auditor is armed by CongestionSpec,
// so the channel-accounting and epoch-guard invariants are asserted
// live throughout.
func TestCtrlFailoverArc(t *testing.T) {
	tpmCong, _ := testTPMs(t)
	res, err := CtrlFailover(tpmCong, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver {
		t.Fatal("standby never took over")
	}
	if !res.Fenced {
		t.Fatal("restarted primary was not fenced")
	}
	if res.ReconvergeMs <= 0 {
		t.Fatalf("no reconvergence after failover (%.2f ms)", res.ReconvergeMs)
	}
	if res.RetainedPct <= 0 {
		t.Fatalf("retained %.1f%% of oracle", res.RetainedPct)
	}
	s := res.Run.Summary
	if s.Completed+s.Failed != s.Submitted {
		t.Fatalf("accounting: %d + %d != %d", s.Completed, s.Failed, s.Submitted)
	}
	led := s.Ctrl
	if led == nil {
		t.Fatal("no control-plane ledger")
	}
	if led.Epoch < 2 {
		t.Fatalf("epoch %d after failover, want >= 2", led.Epoch)
	}
	if led.Sent != led.Delivered+led.Dropped+led.InFlight {
		t.Fatalf("channel conservation: sent %d != delivered %d + dropped %d + in-flight %d",
			led.Sent, led.Delivered, led.Dropped, led.InFlight)
	}
	if led.LeaseExpiries == 0 {
		t.Fatal("crash never expired a lease")
	}
	// Epoch ledger entries must be monotone in epoch and time.
	for i := 1; i < len(res.Epochs); i++ {
		if res.Epochs[i].Epoch < res.Epochs[i-1].Epoch {
			t.Fatalf("epoch ledger not monotone: %+v", res.Epochs)
		}
		if res.Epochs[i].AtMs < res.Epochs[i-1].AtMs {
			t.Fatalf("epoch ledger time-disordered: %+v", res.Epochs)
		}
	}
	var buf bytes.Buffer
	FprintCtrlFailover(&buf, res)
	for _, want := range []string{"failed over: true", "fenced: true", "epoch ledger"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

// TestCtrlDegradationMonotone sweeps the loss x delay corners at paper
// scale and checks that a pristine channel retains strictly more
// throughput than the dead corner: sustained heartbeat loss expires
// leases and pins agents at the conservative fallback read cut, so the
// lossy corner must pay in aggregate throughput.
func TestCtrlDegradationMonotone(t *testing.T) {
	tpmCong, _ := testTPMs(t)
	res, err := CtrlDegradation(tpmCong, 1200, 7, []float64{0, 0.99}, []float64{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(res.Cells))
	}
	var best, worst *CtrlCell
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Loss == 0 && c.DelayX == 1 {
			best = c
		}
		if c.Loss == 0.99 && c.DelayX == 32 {
			worst = c
		}
		s := c.Run.Summary
		if s.Completed+s.Failed != s.Submitted {
			t.Fatalf("loss=%g delay=%gx accounting: %d + %d != %d",
				c.Loss, c.DelayX, s.Completed, s.Failed, s.Submitted)
		}
		if led := s.Ctrl; led == nil {
			t.Fatalf("loss=%g delay=%gx: no ledger", c.Loss, c.DelayX)
		} else if led.Sent != led.Delivered+led.Dropped+led.InFlight {
			t.Fatalf("loss=%g delay=%gx channel conservation violated", c.Loss, c.DelayX)
		}
	}
	if best == nil || worst == nil {
		t.Fatal("corner cells missing")
	}
	if worst.Run.Summary.Ctrl.Dropped == 0 {
		t.Fatal("lossy corner dropped nothing")
	}
	if worst.Run.Summary.Ctrl.Fallbacks == 0 {
		t.Fatal("dead channel never pinned the fallback weight")
	}
	if best.RetainedPct < worst.RetainedPct {
		t.Fatalf("degradation not monotone: pristine %.1f%% < lossy %.1f%%",
			best.RetainedPct, worst.RetainedPct)
	}
	// The dead corner must pay real throughput, not round to the oracle.
	if best.RetainedPct < 97 {
		t.Fatalf("pristine channel retained only %.1f%%", best.RetainedPct)
	}
	if worst.RetainedPct > 97 {
		t.Fatalf("dead channel retained %.1f%%, expected a visible loss", worst.RetainedPct)
	}
}

// ctrlFaultSpec builds a small in-band DCQCN-SRC run with one
// control-plane fault installed and the auditor armed.
func ctrlFaultRun(t *testing.T, ev faults.Event) *cluster.Result {
	t.Helper()
	tpmCong, _ := testTPMs(t)
	tr, err := VDITrace(7, 150)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Duration()
	spec := ctrlSpec(d)
	spec.TPM = tpmCong
	spec.Guard = guard.Config{Audit: true}
	if ev.At == 0 {
		ev.At = d / 4
	}
	if ev.Kind == faults.CtrlPartition && ev.Duration == 0 {
		ev.Duration = d / 4
	}
	spec.Faults = &faults.Schedule{Seed: 0xC7F0, Events: []faults.Event{ev}}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCtrlFaultKindsAccounting drives each new control-plane fault kind
// through a full run with the auditor armed: the workload accounting
// invariant (Completed + Failed == Submitted) and the channel/epoch
// invariants must hold under every kind.
func TestCtrlFaultKindsAccounting(t *testing.T) {
	cases := []struct {
		name string
		ev   faults.Event
	}{
		{"ctrl-drop", faults.Event{Kind: faults.CtrlDrop, Where: "target:0", Probability: 0.8}},
		{"ctrl-delay", faults.Event{Kind: faults.CtrlDelay, Where: "target:1", Factor: 40}},
		{"ctrl-partition", faults.Event{Kind: faults.CtrlPartition, Where: "target:0"}},
		{"controller-crash", faults.Event{Kind: faults.ControllerCrash, Where: "controller:0"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := ctrlFaultRun(t, tc.ev)
			if res.Completed+res.Failed != res.Submitted {
				t.Fatalf("accounting: %d + %d != %d", res.Completed, res.Failed, res.Submitted)
			}
			if res.FaultsInjected == 0 {
				t.Fatal("fault never fired")
			}
			led := res.Ctrl
			if led == nil {
				t.Fatal("no control-plane ledger")
			}
			if led.Sent != led.Delivered+led.Dropped+led.InFlight {
				t.Fatalf("channel conservation: sent %d != delivered %d + dropped %d + in-flight %d",
					led.Sent, led.Delivered, led.Dropped, led.InFlight)
			}
		})
	}
}

// TestCtrlOffKeepsDirectWiring: the zero Ctrl config must build a
// cluster with no plane — the direct-call wiring — and produce a
// summary with no ctrl ledger, preserving historical JSON shape.
func TestCtrlOffKeepsDirectWiring(t *testing.T) {
	tpmCong, _ := testTPMs(t)
	tr, err := VDITrace(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	spec := CongestionSpec()
	spec.Mode = cluster.DCQCNSRC
	spec.TPM = tpmCong
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ctrl != nil {
		t.Fatal("control-plane ledger present with Ctrl disabled")
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "\"ctrl\"") {
		t.Fatal("summary JSON contains ctrl field with plane disabled")
	}
}
