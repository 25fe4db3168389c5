package ctrlplane

import (
	"strconv"

	"srcsim/internal/guard"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// EpochStep is one entry of the epoch ledger: boot, crash, failover,
// restart, restart-fenced, and reconverged (the first directive of a
// new epoch applied at an agent — the moment the new controller is
// demonstrably steering again).
type EpochStep struct {
	AtMs   float64 `json:"at_ms"`
	Epoch  uint64  `json:"epoch"`
	Reason string  `json:"reason"`
}

// Ledger is the control plane's message and liveness accounting. The
// channel-conservation invariant is Sent == Delivered + Dropped +
// InFlight; the directive invariant is DirectivesDelivered ==
// DirectivesApplied + StaleRejected + DupsAcked.
type Ledger struct {
	Epoch     uint64 `json:"epoch"`
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped,omitempty"`
	InFlight  uint64 `json:"in_flight,omitempty"`

	TelemetryBatches          uint64 `json:"telemetry_batches,omitempty"`
	TelemetryDropped          uint64 `json:"telemetry_dropped,omitempty"`
	TelemetryReorderedDropped uint64 `json:"telemetry_reordered_dropped,omitempty"`
	RateEvents                uint64 `json:"rate_events,omitempty"`

	DirectivesSent      uint64 `json:"directives_sent,omitempty"`
	DirectivesDelivered uint64 `json:"directives_delivered,omitempty"`
	DirectivesApplied   uint64 `json:"directives_applied,omitempty"`
	DirectiveRetries    uint64 `json:"directive_retries,omitempty"`
	DirectivesAbandoned uint64 `json:"directives_abandoned,omitempty"`
	StaleRejected       uint64 `json:"stale_rejected,omitempty"`
	StaleHeartbeats     uint64 `json:"stale_heartbeats,omitempty"`
	DupsAcked           uint64 `json:"dups_acked,omitempty"`

	LeaseExpiries   uint64 `json:"lease_expiries,omitempty"`
	Fallbacks       uint64 `json:"fallbacks,omitempty"`
	LeaseRecoveries uint64 `json:"lease_recoveries,omitempty"`
	Crashes         uint64 `json:"crashes,omitempty"`
	Failovers       uint64 `json:"failovers,omitempty"`

	Epochs []EpochStep `json:"epochs,omitempty"`
}

// epochStep appends one epoch-ledger entry at sim time now.
func (p *Plane) epochStep(now sim.Time, reason string) {
	p.led.Epochs = append(p.led.Epochs, EpochStep{
		AtMs: now.Millis(), Epoch: p.epoch, Reason: reason,
	})
}

// noteApplied records reconvergence: the first directive of an epoch
// later than any previously applied marks the moment the (new)
// controller demonstrably steers the data plane again. The initial
// epoch's first directive is ordinary startup, not a reconvergence.
func (p *Plane) noteApplied(now sim.Time, epoch uint64) {
	if epoch <= p.appliedEpochMax {
		return
	}
	first := p.appliedEpochMax == 0
	p.appliedEpochMax = epoch
	if !first || epoch > 1 {
		p.epochStep(now, "reconverged")
	}
}

// LedgerSnapshot returns the ledger with the instantaneous channel
// occupancy and epoch filled in.
func (p *Plane) LedgerSnapshot() Ledger {
	led := p.led
	led.Epoch = p.epoch
	led.InFlight = p.chInFlight
	return led
}

// AuditInvariants implements guard.Auditable: channel conservation, the
// directive disposition ledger, and the epoch guard (no agent ever runs
// ahead of the plane's epoch; epoch-ledger entries are monotone).
// Read-only, called on the live audit ticker and at drain.
func (p *Plane) AuditInvariants() []guard.Violation {
	var vs []guard.Violation
	if p.led.Sent != p.led.Delivered+p.led.Dropped+p.chInFlight {
		vs = append(vs, guard.Violationf("ctrlplane", "channel-conservation",
			"sent %d != delivered %d + dropped %d + in-flight %d",
			p.led.Sent, p.led.Delivered, p.led.Dropped, p.chInFlight))
	}
	if p.led.DirectivesDelivered != p.led.DirectivesApplied+p.led.StaleRejected+p.led.DupsAcked {
		vs = append(vs, guard.Violationf("ctrlplane", "directive-disposition",
			"delivered %d != applied %d + stale %d + dups %d",
			p.led.DirectivesDelivered, p.led.DirectivesApplied, p.led.StaleRejected, p.led.DupsAcked))
	}
	for t, a := range p.agents {
		if a != nil && a.epoch > p.epoch {
			vs = append(vs, guard.Violationf("ctrlplane", "epoch-guard",
				"agent %d epoch %d ahead of plane epoch %d", t, a.epoch, p.epoch))
		}
	}
	if p.pendingDirs < 0 {
		vs = append(vs, guard.Violationf("ctrlplane", "pending-directives",
			"pending directive count %d negative", p.pendingDirs))
	}
	return vs
}

// Instrument registers the plane's ledger counters and epoch with a
// metrics registry, plus recorder-only series for channel occupancy,
// unacknowledged directives, controller liveness and each agent's lease
// age and state — control-plane lag rendered against the same timeline
// as queue growth. Nil reg is a no-op.
func (p *Plane) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	for name, v := range map[string]*uint64{
		"msgs_sent":          &p.led.Sent,
		"msgs_delivered":     &p.led.Delivered,
		"msgs_dropped":       &p.led.Dropped,
		"directives_applied": &p.led.DirectivesApplied,
		"directive_retries":  &p.led.DirectiveRetries,
		"stale_rejected":     &p.led.StaleRejected,
		"lease_expiries":     &p.led.LeaseExpiries,
		"fallbacks":          &p.led.Fallbacks,
		"failovers":          &p.led.Failovers,
	} {
		reg.CounterFunc("ctrlplane", name, obs.U64(v), labels...)
	}
	reg.GaugeFunc("ctrlplane", "epoch", obs.Last, obs.U64(&p.epoch), labels...)
	reg.GaugeFunc("ctrlplane", "inflight_msgs", obs.Probe, obs.U64(&p.chInFlight), labels...)
	reg.GaugeFunc("ctrlplane", "pending_directives", obs.Probe, func() float64 { return float64(p.pendingDirs) }, labels...)
	reg.GaugeFunc("ctrlplane", "controller_up", obs.Probe, func() float64 {
		if p.controllerUp() {
			return 1
		}
		return 0
	}, labels...)
	for t := range p.agents {
		tl := append(labels[:len(labels):len(labels)], obs.L("target", "t"+strconv.Itoa(t)))
		reg.GaugeFunc("ctrlplane", "lease_age_us", obs.Probe, func() float64 {
			if a := p.agents[t]; a != nil {
				return float64(a.leaseAge(p.eng.Now())) / 1e3
			}
			return 0
		}, tl...)
		reg.GaugeFunc("ctrlplane", "lease_state", obs.Probe, func() float64 {
			if a := p.agents[t]; a != nil {
				return float64(a.state)
			}
			return 0
		}, tl...)
	}
}
