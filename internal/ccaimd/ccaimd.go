// Package ccaimd implements an ECN-fraction AIMD congestion controller
// in the style of the "oversubscribed CC" used by the REPS artifact: on
// a fixed update interval the sender folds the fraction of ECN-marked
// acknowledgements received since the last update into an EWMA
// congestion level g, then decreases multiplicatively in proportion to
// how far g overshoots the target congestion level (rate *=
// 1-(g-target)*Md) or increases additively when the path runs below
// target.
//
// It implements the same reaction-point surface as dcqcn.RP / timely.RP
// (netsim's RateController) plus the per-ack ECN-echo hook the NIC feeds
// when the scheme is selected, so the whole SRC stack runs unchanged on
// top of it.
package ccaimd

import (
	"fmt"

	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// Config holds the AIMD constants. Defaults follow the REPS artifact's
// oversubscribed-CC settings, with the dimensionless rate mapped onto
// the NIC line rate.
type Config struct {
	// LineRate is the NIC line rate in bits/s (default 40 Gbps).
	LineRate float64
	// MinRate is the rate floor (default 40 Mbps).
	MinRate float64
	// UpdateInterval is the decision period (default 18 µs).
	UpdateInterval sim.Time
	// TargetCongestion is the EWMA mark-fraction level the controller
	// regulates to (default 0.3).
	TargetCongestion float64
	// Gain is the EWMA weight of the newest mark-fraction sample
	// (default 0.5).
	Gain float64
	// Ai is the additive increase per interval as a fraction of line
	// rate (default 0.05).
	Ai float64
	// Md scales the multiplicative decrease applied per unit of
	// overshoot above the target (default 0.75).
	Md float64
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.LineRate <= 0 {
		c.LineRate = 40e9
	}
	if c.MinRate <= 0 {
		c.MinRate = 40e6
	}
	if c.UpdateInterval <= 0 {
		c.UpdateInterval = 18 * sim.Microsecond
	}
	if c.TargetCongestion <= 0 {
		c.TargetCongestion = 0.3
	}
	if c.Gain <= 0 {
		c.Gain = 0.5
	}
	if c.Ai <= 0 {
		c.Ai = 0.05
	}
	if c.Md <= 0 {
		c.Md = 0.75
	}
	return c
}

// Validate reports inconsistent settings.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.MinRate > c.LineRate {
		return fmt.Errorf("ccaimd: MinRate %v exceeds LineRate %v", c.MinRate, c.LineRate)
	}
	if c.TargetCongestion >= 1 {
		return fmt.Errorf("ccaimd: TargetCongestion %v outside (0,1)", c.TargetCongestion)
	}
	if c.Gain > 1 {
		return fmt.Errorf("ccaimd: Gain %v outside (0,1]", c.Gain)
	}
	// The deepest per-interval cut is (1-target)*Md; it must leave a
	// positive rate for the AIMD loop to recover from.
	if c.Md*(1-c.TargetCongestion) >= 1 {
		return fmt.Errorf("ccaimd: Md %v cuts the whole rate at full marking (target %v)", c.Md, c.TargetCongestion)
	}
	return nil
}

// RP is the per-flow AIMD rate state. It satisfies netsim.RateController
// and netsim.ECNEchoObserver.
type RP struct {
	cfg Config
	eng *sim.Engine

	// OnRate, if set, observes every rate change (old, new in bits/s).
	OnRate func(oldRate, newRate float64)

	rate float64
	g    float64 // EWMA congestion level

	acked, marked       uint64 // running totals fed by OnAckECN
	oldAcked, oldMarked uint64 // totals at the previous tick

	tickEv sim.Handle
	tickFn func()
	active bool

	// Counters.
	Acks          uint64
	Marks         uint64
	RateDecreases uint64
	RateIncreases uint64
}

// NewRP returns an AIMD reaction point starting at line rate. The
// engine drives the fixed update interval.
func NewRP(eng *sim.Engine, cfg Config) *RP {
	cfg = cfg.WithDefaults()
	rp := &RP{cfg: cfg, eng: eng, rate: cfg.LineRate}
	rp.tickFn = rp.tick
	return rp
}

// Rate implements netsim.RateController.
func (rp *RP) Rate() float64 { return rp.rate }

// CongestionLevel returns the EWMA mark-fraction estimate g.
func (rp *RP) CongestionLevel() float64 { return rp.g }

// OnBytesSent implements netsim.RateController (no byte clock).
func (rp *RP) OnBytesSent(int) {}

// OnAck implements netsim.RateController; the ECN echo arrives through
// OnAckECN, which the NIC invokes first.
func (rp *RP) OnAck(sim.Time) {}

// NeedsAck implements netsim.RateController: the mark fraction is
// measured from per-packet acknowledgements echoing the ECN bit.
func (rp *RP) NeedsAck() bool { return true }

// SetRateListener implements netsim.RateController.
func (rp *RP) SetRateListener(fn func(oldRate, newRate float64)) { rp.OnRate = fn }

// OnAckECN implements netsim.ECNEchoObserver: one acknowledgement with
// the receiver-echoed ECN mark state.
func (rp *RP) OnAckECN(markedPkt bool) {
	rp.Acks++
	rp.acked++
	if markedPkt {
		rp.Marks++
		rp.marked++
	}
	rp.arm()
}

// OnCongestionSignal implements netsim.RateController: an explicit
// congestion notification is folded in as a fully marked interval, so
// the scheme stays safe on fabrics that emit CNPs.
func (rp *RP) OnCongestionSignal() {
	rp.g = rp.g*(1-rp.cfg.Gain) + rp.cfg.Gain
	if rp.g > rp.cfg.TargetCongestion {
		rp.setRate(rp.rate * (1 - (rp.g-rp.cfg.TargetCongestion)*rp.cfg.Md))
	}
	rp.arm()
}

// arm starts the update ticker if it is idle.
func (rp *RP) arm() {
	rp.active = true
	if rp.tickEv.Cancelled() {
		rp.tickEv = rp.eng.After(rp.cfg.UpdateInterval, rp.tickFn)
	}
}

// tick runs one AIMD decision over the acks of the elapsed interval,
// then idles itself once the flow is back at line rate with no marks in
// flight (so idle fabrics quiesce).
func (rp *RP) tick() {
	total := rp.acked - rp.oldAcked
	ecn := rp.marked - rp.oldMarked
	rp.oldAcked, rp.oldMarked = rp.acked, rp.marked

	fraction := 0.0
	if total > 0 {
		fraction = float64(ecn) / float64(total)
	}
	rp.g = rp.g*(1-rp.cfg.Gain) + rp.cfg.Gain*fraction

	if rp.g > rp.cfg.TargetCongestion {
		rp.setRate(rp.rate * (1 - (rp.g-rp.cfg.TargetCongestion)*rp.cfg.Md))
	} else {
		rp.setRate(rp.rate + rp.cfg.Ai*rp.cfg.LineRate)
	}

	if total == 0 && rp.rate >= rp.cfg.LineRate && rp.g < 1e-3 {
		rp.active = false
	}
	if rp.active {
		rp.tickEv = rp.eng.After(rp.cfg.UpdateInterval, rp.tickFn)
	}
}

func (rp *RP) setRate(newRate float64) {
	if newRate > rp.cfg.LineRate {
		newRate = rp.cfg.LineRate
	}
	if newRate < rp.cfg.MinRate {
		newRate = rp.cfg.MinRate
	}
	if newRate == rp.rate {
		return
	}
	old := rp.rate
	rp.rate = newRate
	if newRate < old {
		rp.RateDecreases++
	} else {
		rp.RateIncreases++
	}
	if rp.OnRate != nil {
		rp.OnRate(old, newRate)
	}
}

// Instrument registers the reaction point's EWMA congestion level as a
// recorder-only series (the fabric registers the current rate).
func (rp *RP) Instrument(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("aimd", "cong_level", obs.Probe, rp.CongestionLevel, labels...)
}
