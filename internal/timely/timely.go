// Package timely implements the TIMELY congestion-control algorithm
// (Mittal et al., SIGCOMM 2015), the delay-based alternative to DCQCN
// that the paper's related work cites. TIMELY paces each flow from RTT
// measurements: below Tlow it increases additively, above Thigh it
// decreases multiplicatively, and in between it follows the normalized
// RTT gradient.
//
// It implements the same reaction-point surface as dcqcn.RP (netsim's
// RateController), so the whole SRC stack — including the storage-side
// controller, which only consumes rate-change events — runs unchanged on
// top of it. Unlike DCQCN it needs per-packet acknowledgements; the NIC
// generates them when the controller reports NeedsAck.
package timely

import (
	"fmt"

	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// Config holds the TIMELY constants. Defaults follow the paper's
// recommended settings scaled to microsecond-RTT fabrics.
type Config struct {
	// LineRate is the NIC line rate in bits/s (default 40 Gbps).
	LineRate float64
	// MinRate is the rate floor (default 40 Mbps).
	MinRate float64
	// Tlow: below this RTT the flow increases additively (default 30 µs).
	Tlow sim.Time
	// Thigh: above this RTT the flow decreases multiplicatively
	// (default 150 µs).
	Thigh sim.Time
	// MinRTT normalises the gradient (default 10 µs).
	MinRTT sim.Time
	// AddStep is the additive increase per decision (default 50 Mbps).
	AddStep float64
	// Beta is the multiplicative-decrease factor (default 0.8).
	Beta float64
	// EWMAAlpha smooths the RTT-difference series (default 0.875 means
	// 1/8 new sample weight, as in the paper).
	EWMAAlpha float64
	// HAIThreshold: after this many consecutive gradient-negative
	// decisions, switch to hyper-active increase (default 5).
	HAIThreshold int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.LineRate <= 0 {
		c.LineRate = 40e9
	}
	if c.MinRate <= 0 {
		c.MinRate = 40e6
	}
	if c.Tlow <= 0 {
		c.Tlow = 30 * sim.Microsecond
	}
	if c.Thigh <= 0 {
		c.Thigh = 150 * sim.Microsecond
	}
	if c.MinRTT <= 0 {
		c.MinRTT = 10 * sim.Microsecond
	}
	if c.AddStep <= 0 {
		c.AddStep = 50e6
	}
	if c.Beta <= 0 {
		c.Beta = 0.8
	}
	if c.EWMAAlpha <= 0 {
		c.EWMAAlpha = 0.875
	}
	if c.HAIThreshold <= 0 {
		c.HAIThreshold = 5
	}
	return c
}

// Validate reports inconsistent settings.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Tlow >= c.Thigh {
		return fmt.Errorf("timely: Tlow %v must be below Thigh %v", c.Tlow, c.Thigh)
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("timely: beta %v outside (0,1)", c.Beta)
	}
	if c.MinRate > c.LineRate {
		return fmt.Errorf("timely: MinRate %v exceeds LineRate %v", c.MinRate, c.LineRate)
	}
	return nil
}

// RP is TIMELY's per-flow rate state. It satisfies netsim.RateController.
type RP struct {
	cfg Config

	// OnRate, if set, observes every rate change (old, new in bits/s).
	OnRate func(oldRate, newRate float64)

	rate     float64
	prevRTT  sim.Time
	rttDiff  float64 // EWMA of RTT differences, ns
	haiCount int
	havePrev bool

	// Counters.
	Acks          uint64
	RateDecreases uint64
	RateIncreases uint64
}

// NewRP returns a TIMELY reaction point starting at line rate.
func NewRP(cfg Config) *RP {
	cfg = cfg.WithDefaults()
	return &RP{cfg: cfg, rate: cfg.LineRate}
}

// Rate implements netsim.RateController.
func (rp *RP) Rate() float64 { return rp.rate }

// OnBytesSent implements netsim.RateController (TIMELY is ack-clocked;
// bytes sent carry no signal).
func (rp *RP) OnBytesSent(int) {}

// OnCongestionSignal implements netsim.RateController. TIMELY is
// delay-based; an explicit congestion notification (e.g. a CNP from an
// ECN-marked packet) is treated as a Thigh-grade decrease so TIMELY
// remains safe on ECN-enabled fabrics.
func (rp *RP) OnCongestionSignal() {
	rp.setRate(rp.rate * rp.cfg.Beta)
}

// NeedsAck implements netsim.RateController: TIMELY requires per-packet
// RTT samples.
func (rp *RP) NeedsAck() bool { return true }

// SetRateListener implements netsim.RateController.
func (rp *RP) SetRateListener(fn func(oldRate, newRate float64)) { rp.OnRate = fn }

// OnAck implements netsim.RateController: one RTT sample drives one
// TIMELY decision.
func (rp *RP) OnAck(rtt sim.Time) {
	rp.Acks++
	if !rp.havePrev {
		rp.prevRTT = rtt
		rp.havePrev = true
		return
	}
	newDiff := float64(rtt - rp.prevRTT)
	rp.prevRTT = rtt
	a := rp.cfg.EWMAAlpha
	rp.rttDiff = a*rp.rttDiff + (1-a)*newDiff
	gradient := rp.rttDiff / float64(rp.cfg.MinRTT)

	switch {
	case rtt < rp.cfg.Tlow:
		rp.haiCount = 0
		rp.setRate(rp.rate + rp.cfg.AddStep)
	case rtt > rp.cfg.Thigh:
		rp.haiCount = 0
		rp.setRate(rp.rate * (1 - rp.cfg.Beta*(1-float64(rp.cfg.Thigh)/float64(rtt))))
	case gradient <= 0:
		rp.haiCount++
		step := rp.cfg.AddStep
		if rp.haiCount >= rp.cfg.HAIThreshold {
			step *= 5 // hyper-active increase
		}
		rp.setRate(rp.rate + step)
	default:
		rp.haiCount = 0
		if gradient > 1 {
			gradient = 1
		}
		rp.setRate(rp.rate * (1 - rp.cfg.Beta*gradient))
	}
}

// Instrument registers the smoothed RTT-difference series driving the
// gradient as a recorder-only series (the fabric registers the current
// rate).
func (rp *RP) Instrument(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("timely", "rttdiff_us", obs.Probe, func() float64 { return rp.rttDiff / 1e3 }, labels...)
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
