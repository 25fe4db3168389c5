// Package hpcc implements an HPCC-style congestion-control algorithm
// (Li et al., SIGCOMM 2019): senders pace from precise in-network
// telemetry (INT) instead of end-to-end signals. Every data packet
// accumulates one INTHop record per switch (egress queue depth, the
// port's cumulative TxBytes counter, a timestamp, and the port rate);
// the receiver echoes the header on the ack, and the sender computes
// each hop's utilisation
//
//	U_i = qlen_i*8/(rate_i*T) + txRate_i/rate_i
//
// from consecutive samples, reacting to the bottleneck max U: a
// multiplicative alignment toward the target utilisation Eta when the
// path runs hot, additive probing (bounded by MaxStage per alignment)
// when it runs cool.
//
// It implements the same reaction-point surface as dcqcn.RP / timely.RP
// (netsim's RateController) plus the INT-ack hook the NIC feeds when the
// scheme is selected, so the whole SRC stack runs unchanged on top of
// it.
package hpcc

import (
	"fmt"

	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// Config holds the HPCC constants.
type Config struct {
	// LineRate is the NIC line rate in bits/s (default 40 Gbps).
	LineRate float64
	// MinRate is the rate floor (default 40 Mbps).
	MinRate float64
	// Eta is the target link utilisation the sender aligns to
	// (default 0.95).
	Eta float64
	// TBase is the base RTT that normalises queue depth into
	// utilisation (default 20 µs).
	TBase sim.Time
	// WaiBps is the additive-increase step per INT sample (default
	// 40 Mbps).
	WaiBps float64
	// MaxStage bounds consecutive additive increases before the sender
	// re-aligns multiplicatively to the measured utilisation (default 5).
	MaxStage int
	// CNPBeta is the multiplicative decrease applied on an explicit
	// congestion signal (a CNP), keeping the scheme safe on fabrics that
	// also emit them (default 0.8).
	CNPBeta float64
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.LineRate <= 0 {
		c.LineRate = 40e9
	}
	if c.MinRate <= 0 {
		c.MinRate = 40e6
	}
	if c.Eta <= 0 {
		c.Eta = 0.95
	}
	if c.TBase <= 0 {
		c.TBase = 20 * sim.Microsecond
	}
	if c.WaiBps <= 0 {
		c.WaiBps = 40e6
	}
	if c.MaxStage <= 0 {
		c.MaxStage = 5
	}
	if c.CNPBeta <= 0 {
		c.CNPBeta = 0.8
	}
	return c
}

// Validate reports inconsistent settings.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.MinRate > c.LineRate {
		return fmt.Errorf("hpcc: MinRate %v exceeds LineRate %v", c.MinRate, c.LineRate)
	}
	if c.Eta > 1 {
		return fmt.Errorf("hpcc: Eta %v outside (0,1]", c.Eta)
	}
	if c.CNPBeta >= 1 {
		return fmt.Errorf("hpcc: CNPBeta %v outside (0,1)", c.CNPBeta)
	}
	return nil
}

// hopRef is the previous INT sample of one path hop, kept to derive the
// port's output rate from consecutive TxBytes counters.
type hopRef struct {
	node    uint32
	txBytes uint64
	tsNs    uint64
}

// RP is HPCC's per-flow rate state. It satisfies netsim.RateController
// and netsim.INTObserver.
type RP struct {
	cfg Config

	// OnRate, if set, observes every rate change (old, new in bits/s).
	OnRate func(oldRate, newRate float64)

	rate     float64
	prev     []hopRef
	lastU    float64
	incStage int

	// Counters.
	INTSamples    uint64
	RateDecreases uint64
	RateIncreases uint64
}

// NewRP returns an HPCC reaction point starting at line rate.
func NewRP(cfg Config) *RP {
	cfg = cfg.WithDefaults()
	return &RP{cfg: cfg, rate: cfg.LineRate}
}

// Rate implements netsim.RateController.
func (rp *RP) Rate() float64 { return rp.rate }

// Utilisation returns the bottleneck utilisation of the last INT sample.
func (rp *RP) Utilisation() float64 { return rp.lastU }

// OnBytesSent implements netsim.RateController (HPCC is INT-clocked;
// bytes sent carry no signal).
func (rp *RP) OnBytesSent(int) {}

// OnCongestionSignal implements netsim.RateController: an explicit
// congestion notification is treated as a fixed multiplicative decrease.
func (rp *RP) OnCongestionSignal() {
	rp.setRate(rp.rate * rp.cfg.CNPBeta)
}

// NeedsAck implements netsim.RateController: HPCC needs per-packet acks
// to carry the echoed INT header back.
func (rp *RP) NeedsAck() bool { return true }

// SetRateListener implements netsim.RateController.
func (rp *RP) SetRateListener(fn func(oldRate, newRate float64)) { rp.OnRate = fn }

// OnAck implements netsim.RateController; the decision runs in OnINTAck,
// which the NIC invokes first on INT-carrying acks.
func (rp *RP) OnAck(sim.Time) {}

// OnINTAck implements netsim.INTObserver: one echoed INT header drives
// one HPCC decision against the bottleneck hop.
func (rp *RP) OnINTAck(h *INTHeader) {
	rp.INTSamples++
	tBase := float64(rp.cfg.TBase) / float64(sim.Second)
	u := 0.0
	for i, hop := range h.Hops {
		rateBps := float64(hop.RateBps)
		if rateBps <= 0 {
			continue
		}
		uHop := float64(hop.Queue) * 8 / (rateBps * tBase)
		// The port's output rate from consecutive TxBytes samples; a
		// first sample or a path change (ECMP failover) contributes the
		// queue term only.
		if i < len(rp.prev) {
			if p := rp.prev[i]; p.node == hop.Node && hop.TsNs > p.tsNs && hop.TxBytes >= p.txBytes {
				txRate := float64(hop.TxBytes-p.txBytes) * 8 / (float64(hop.TsNs-p.tsNs) / 1e9)
				uHop += txRate / rateBps
			}
		}
		if uHop > u {
			u = uHop
		}
	}
	if len(h.Hops) <= cap(rp.prev) {
		rp.prev = rp.prev[:len(h.Hops)]
	} else {
		rp.prev = make([]hopRef, len(h.Hops))
	}
	for i, hop := range h.Hops {
		rp.prev[i] = hopRef{node: hop.Node, txBytes: hop.TxBytes, tsNs: hop.TsNs}
	}
	rp.lastU = u

	switch {
	case u >= rp.cfg.Eta:
		// Path hot: align the rate multiplicatively to the target.
		rp.incStage = 0
		rp.setRate(rp.rate * rp.cfg.Eta / u)
	case rp.incStage >= rp.cfg.MaxStage && u > 0:
		// Probed long enough: re-align to the (cool) measurement.
		rp.incStage = 0
		rp.setRate(rp.rate*rp.cfg.Eta/u + rp.cfg.WaiBps)
	default:
		rp.incStage++
		rp.setRate(rp.rate + rp.cfg.WaiBps)
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

// Instrument registers the bottleneck utilisation of the last INT
// sample as a recorder-only series (the fabric registers the current
// rate).
func (rp *RP) Instrument(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("hpcc", "util", obs.Probe, rp.Utilisation, labels...)
}
