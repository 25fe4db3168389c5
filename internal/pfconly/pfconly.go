// Package pfconly implements the PFC/RCM baseline from the OMNeT++
// RoCEv2 simulation line of work: losslessness comes from PFC alone,
// and the sender runs only a static rate-control module (RCM) — a fixed
// multiplicative cut per congestion notification and a fixed linear
// timer-driven recovery, with none of DCQCN's adaptive alpha state.
// It is the weakest transport in the zoo: the congestion reaction is
// blunt, so PFC pause storms do most of the throttling — exactly the
// regime where storage-side rate control has the most to recover.
//
// It implements the same reaction-point surface as dcqcn.RP / timely.RP
// (netsim's RateController), so the whole SRC stack runs unchanged on
// top of it.
package pfconly

import (
	"fmt"

	"srcsim/internal/sim"
)

// Config holds the static RCM constants.
type Config struct {
	// LineRate is the NIC line rate in bits/s (default 40 Gbps).
	LineRate float64
	// MinRate is the rate floor (default 40 Mbps).
	MinRate float64
	// CutFactor is the fixed multiplicative cut per congestion signal
	// (default 0.5).
	CutFactor float64
	// RecoverEvery is the linear-recovery timer period (default 100 µs).
	RecoverEvery sim.Time
	// RecoverBps is the additive rate restored per period (default
	// 200 Mbps).
	RecoverBps float64
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.LineRate <= 0 {
		c.LineRate = 40e9
	}
	if c.MinRate <= 0 {
		c.MinRate = 40e6
	}
	if c.CutFactor <= 0 {
		c.CutFactor = 0.5
	}
	if c.RecoverEvery <= 0 {
		c.RecoverEvery = 100 * sim.Microsecond
	}
	if c.RecoverBps <= 0 {
		c.RecoverBps = 200e6
	}
	return c
}

// Validate reports inconsistent settings.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.MinRate > c.LineRate {
		return fmt.Errorf("pfconly: MinRate %v exceeds LineRate %v", c.MinRate, c.LineRate)
	}
	if c.CutFactor >= 1 {
		return fmt.Errorf("pfconly: CutFactor %v outside (0,1)", c.CutFactor)
	}
	return nil
}

// RP is the static rate-control module: per-flow rate state with a
// fixed cut and a fixed linear recovery. It satisfies
// netsim.RateController.
type RP struct {
	cfg Config
	eng *sim.Engine

	// OnRate, if set, observes every rate change (old, new in bits/s).
	OnRate func(oldRate, newRate float64)

	rate float64

	recoverEv sim.Handle
	recoverFn func()
	active    bool

	// Counters.
	Signals       uint64
	RateDecreases uint64
	RateIncreases uint64
}

// NewRP returns a static RCM starting at line rate. The engine drives
// the linear-recovery timer.
func NewRP(eng *sim.Engine, cfg Config) *RP {
	cfg = cfg.WithDefaults()
	rp := &RP{cfg: cfg, eng: eng, rate: cfg.LineRate}
	rp.recoverFn = rp.recoverTick
	return rp
}

// Rate implements netsim.RateController.
func (rp *RP) Rate() float64 { return rp.rate }

// OnBytesSent implements netsim.RateController (no byte clock).
func (rp *RP) OnBytesSent(int) {}

// OnAck implements netsim.RateController (no RTT signal).
func (rp *RP) OnAck(sim.Time) {}

// NeedsAck implements netsim.RateController: the static RCM needs no
// per-packet acknowledgements.
func (rp *RP) NeedsAck() bool { return false }

// SetRateListener implements netsim.RateController.
func (rp *RP) SetRateListener(fn func(oldRate, newRate float64)) { rp.OnRate = fn }

// OnCongestionSignal implements netsim.RateController: the fixed cut.
func (rp *RP) OnCongestionSignal() {
	rp.Signals++
	rp.setRate(rp.rate * rp.cfg.CutFactor)
	rp.active = true
	if rp.recoverEv.Cancelled() {
		rp.recoverEv = rp.eng.After(rp.cfg.RecoverEvery, rp.recoverFn)
	}
}

// recoverTick restores one linear step, idling the timer once the flow
// is back at line rate.
func (rp *RP) recoverTick() {
	rp.setRate(rp.rate + rp.cfg.RecoverBps)
	if rp.rate >= rp.cfg.LineRate {
		rp.active = false
	}
	if rp.active {
		rp.recoverEv = rp.eng.After(rp.cfg.RecoverEvery, rp.recoverFn)
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
