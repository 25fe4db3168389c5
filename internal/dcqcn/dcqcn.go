// Package dcqcn implements the DCQCN congestion-control algorithm (Zhu et
// al., SIGCOMM 2015) used as the paper's baseline network congestion
// control: the reaction point (RP) rate state machine at senders, the
// notification point (NP) CNP pacing at receivers, and the congestion
// point (CP) RED-style ECN marking at switch queues.
//
// The RP exposes a rate-change callback; internal/core treats every rate
// decrease as a "pause" event and every increase as a "retrieval" event —
// the congestion signals SRC consumes (Alg. 1).
package dcqcn

import (
	"fmt"

	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// Config holds the DCQCN constants. Defaults (via WithDefaults) follow
// the values commonly used in the DCQCN paper and its NS3 model.
type Config struct {
	// G is the alpha EWMA gain (default 1/256).
	G float64
	// LineRate is the NIC line rate in bits/s (default 40 Gbps).
	LineRate float64
	// MinRate is the rate floor in bits/s (default 40 Mbps).
	MinRate float64
	// AlphaTimer is the alpha-decay period without CNPs (default 55 µs).
	AlphaTimer sim.Time
	// IncreaseTimer drives time-based rate increase (default 300 µs).
	IncreaseTimer sim.Time
	// ByteCounter drives byte-based rate increase (default 10 MB).
	ByteCounter int64
	// FastRecoverySteps is F, the stages of fast recovery (default 5).
	FastRecoverySteps int
	// RaiBps is the additive increase step (default 40 Mbps).
	RaiBps float64
	// RhaiBps is the hyper increase step (default 200 Mbps).
	RhaiBps float64
	// CNPInterval is the NP's minimum gap between CNPs (default 50 µs).
	CNPInterval sim.Time
	// ECNKmin/ECNKmax/ECNPmax parameterise CP marking: below Kmin bytes
	// no marks, above Kmax always mark, linear Pmax ramp in between
	// (defaults 64 KiB / 512 KiB / 0.2).
	ECNKmin int64
	ECNKmax int64
	ECNPmax float64
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.G <= 0 {
		c.G = 1.0 / 256
	}
	if c.LineRate <= 0 {
		c.LineRate = 40e9
	}
	if c.MinRate <= 0 {
		c.MinRate = 40e6
	}
	if c.AlphaTimer <= 0 {
		c.AlphaTimer = 55 * sim.Microsecond
	}
	if c.IncreaseTimer <= 0 {
		c.IncreaseTimer = 300 * sim.Microsecond
	}
	if c.ByteCounter <= 0 {
		c.ByteCounter = 10 << 20
	}
	if c.FastRecoverySteps <= 0 {
		c.FastRecoverySteps = 5
	}
	if c.RaiBps <= 0 {
		c.RaiBps = 40e6
	}
	if c.RhaiBps <= 0 {
		c.RhaiBps = 200e6
	}
	if c.CNPInterval <= 0 {
		c.CNPInterval = 50 * sim.Microsecond
	}
	if c.ECNKmin <= 0 {
		c.ECNKmin = 64 << 10
	}
	if c.ECNKmax <= 0 {
		c.ECNKmax = 512 << 10
	}
	if c.ECNPmax <= 0 {
		c.ECNPmax = 0.2
	}
	return c
}

// Validate reports nonsensical parameter combinations.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.MinRate > c.LineRate {
		return fmt.Errorf("dcqcn: MinRate %v exceeds LineRate %v", c.MinRate, c.LineRate)
	}
	if c.ECNKmin >= c.ECNKmax {
		return fmt.Errorf("dcqcn: Kmin %d >= Kmax %d", c.ECNKmin, c.ECNKmax)
	}
	if c.ECNPmax <= 0 || c.ECNPmax > 1 {
		return fmt.Errorf("dcqcn: Pmax %v outside (0,1]", c.ECNPmax)
	}
	return nil
}

// MarkProbability is the CP function: the ECN marking probability for a
// packet arriving at a queue holding queueBytes.
func (c Config) MarkProbability(queueBytes int64) float64 {
	switch {
	case queueBytes <= c.ECNKmin:
		return 0
	case queueBytes >= c.ECNKmax:
		return 1
	default:
		return c.ECNPmax * float64(queueBytes-c.ECNKmin) / float64(c.ECNKmax-c.ECNKmin)
	}
}

// RP is the per-flow reaction point at a sender. It tracks the current
// rate Rc, target rate Rt, and congestion estimate alpha, and invokes
// OnRate on every rate change.
type RP struct {
	cfg Config
	eng *sim.Engine

	// OnRate, if set, observes every rate change (old, new in bits/s).
	OnRate func(oldRate, newRate float64)

	// Obs, if set, feeds the observability layer (metrics + timeline);
	// nil costs one pointer test per rate change.
	Obs *RPObs

	rc, rt float64
	alpha  float64

	cnpSinceAlpha bool
	bytesSinceInc int64
	timeStage     int
	byteStage     int

	alphaEv    sim.Handle
	increaseEv sim.Handle
	// Tick callbacks bound once so timer re-arms do not allocate a
	// method-value closure per period.
	alphaTickFn    func()
	increaseTickFn func()
	active         bool

	// Counters.
	CNPs          uint64
	RateDecreases uint64
	RateIncreases uint64
}

// NewRP returns a reaction point starting at line rate.
func NewRP(eng *sim.Engine, cfg Config) *RP {
	cfg = cfg.WithDefaults()
	rp := &RP{
		cfg:   cfg,
		eng:   eng,
		rc:    cfg.LineRate,
		rt:    cfg.LineRate,
		alpha: 1,
	}
	rp.alphaTickFn = rp.alphaTick
	rp.increaseTickFn = rp.increaseTick
	return rp
}

// Rate returns the current sending rate Rc in bits/s.
func (rp *RP) Rate() float64 { return rp.rc }

// TargetRate returns Rt in bits/s.
func (rp *RP) TargetRate() float64 { return rp.rt }

// Alpha returns the congestion estimate.
func (rp *RP) Alpha() float64 { return rp.alpha }

// notify reports a rate change.
func (rp *RP) notify(old float64) {
	if rp.rc == old {
		return
	}
	if rp.OnRate != nil {
		rp.OnRate(old, rp.rc)
	}
	if rp.Obs != nil {
		rp.Obs.onRate(rp, old)
	}
}

// RPObs is the per-RP instrumentation hookup: shared handles from the
// metrics registry for what no RP field holds, plus a trace scope for
// the rate timeline. The fabric attaches one per flow when
// observability is on; the CNPs and RateIncreases fields register as
// read-through series instead.
type RPObs struct {
	// Scope receives the rate counter track, CNP instants, and
	// "throttled" spans (line-rate departure to full recovery).
	Scope *obs.Scope
	// Name labels this RP's trace events, e.g. "flow3 t0>i0".
	Name string

	// RateCuts counts CNPs that moved the rate, usually shared across
	// every flow of a fabric.
	RateCuts *obs.Counter
	// CutDepth observes the percentage of rate removed per CNP.
	CutDepth *obs.Histogram

	throttled      bool
	throttledSince sim.Time
}

// onCNP records the congestion signal itself; rate movement is handled
// by onRate via notify.
func (o *RPObs) onCNP(rp *RP, old float64) {
	if old > 0 {
		o.CutDepth.Observe((1 - rp.rc/old) * 100)
	}
	if o.Scope.Enabled() {
		o.Scope.Instant(rp.eng.Now(), "dcqcn", "cnp "+o.Name)
	}
}

// onRate tracks the cut counter, the rate timeline, and the throttled
// span covering each congestion episode.
func (o *RPObs) onRate(rp *RP, old float64) {
	if rp.rc < old {
		o.RateCuts.Inc()
	}
	now := rp.eng.Now()
	if o.Scope.Enabled() {
		o.Scope.Counter(now, "dcqcn", "rate_gbps "+o.Name, rp.rc/1e9)
	}
	line := rp.cfg.LineRate
	switch {
	case !o.throttled && rp.rc < old && old >= line:
		o.throttled = true
		o.throttledSince = now
	case o.throttled && rp.rc >= line:
		o.throttled = false
		if o.Scope.Enabled() {
			o.Scope.Span("dcqcn", "throttled "+o.Name, o.throttledSince, now)
		}
	}
}

// OnCongestionSignal implements netsim.RateController: DCQCN reacts to
// CNPs.
func (rp *RP) OnCongestionSignal() { rp.OnCNP() }

// OnAck implements netsim.RateController; DCQCN is ECN-driven and
// ignores RTT samples.
func (rp *RP) OnAck(sim.Time) {}

// NeedsAck implements netsim.RateController: DCQCN needs no per-packet
// acknowledgements.
func (rp *RP) NeedsAck() bool { return false }

// SetRateListener implements netsim.RateController.
func (rp *RP) SetRateListener(fn func(oldRate, newRate float64)) { rp.OnRate = fn }

// OnCNP applies the DCQCN rate-decrease step for one received CNP.
func (rp *RP) OnCNP() {
	rp.CNPs++
	old := rp.rc
	rp.alpha = (1-rp.cfg.G)*rp.alpha + rp.cfg.G
	rp.rt = rp.rc
	rp.rc = rp.rc * (1 - rp.alpha/2)
	if rp.rc < rp.cfg.MinRate {
		rp.rc = rp.cfg.MinRate
	}
	rp.cnpSinceAlpha = true
	rp.timeStage, rp.byteStage = 0, 0
	rp.bytesSinceInc = 0
	rp.RateDecreases++
	if rp.Obs != nil {
		rp.Obs.onCNP(rp, old)
	}
	rp.armTimers()
	rp.notify(old)
}

// OnBytesSent feeds the byte counter that drives byte-based increases.
func (rp *RP) OnBytesSent(n int) {
	if !rp.active {
		return
	}
	rp.bytesSinceInc += int64(n)
	for rp.bytesSinceInc >= rp.cfg.ByteCounter {
		rp.bytesSinceInc -= rp.cfg.ByteCounter
		rp.byteStage++
		rp.increase()
	}
}

// armTimers (re)starts the alpha-decay and rate-increase timers; they
// stop themselves once the flow returns to line rate.
func (rp *RP) armTimers() {
	rp.active = true
	if rp.alphaEv.Cancelled() {
		rp.alphaEv = rp.eng.After(rp.cfg.AlphaTimer, rp.alphaTickFn)
	}
	if rp.increaseEv.Cancelled() {
		rp.increaseEv = rp.eng.After(rp.cfg.IncreaseTimer, rp.increaseTickFn)
	}
}

func (rp *RP) alphaTick() {
	if !rp.cnpSinceAlpha {
		rp.alpha = (1 - rp.cfg.G) * rp.alpha
	}
	rp.cnpSinceAlpha = false
	if rp.active {
		rp.alphaEv = rp.eng.After(rp.cfg.AlphaTimer, rp.alphaTickFn)
	}
}

func (rp *RP) increaseTick() {
	rp.timeStage++
	rp.increase()
	if rp.active {
		rp.increaseEv = rp.eng.After(rp.cfg.IncreaseTimer, rp.increaseTickFn)
	}
}

// increase applies one DCQCN rate-increase step. Stage selection follows
// the algorithm: fast recovery until either counter passes F, additive
// when one has, hyper when both have.
func (rp *RP) increase() {
	old := rp.rc
	f := rp.cfg.FastRecoverySteps
	switch {
	case rp.timeStage < f && rp.byteStage < f:
		// Fast recovery: halve the gap to the target.
	case rp.timeStage >= f && rp.byteStage >= f:
		rp.rt += rp.cfg.RhaiBps
	default:
		rp.rt += rp.cfg.RaiBps
	}
	if rp.rt > rp.cfg.LineRate {
		rp.rt = rp.cfg.LineRate
	}
	rp.rc = (rp.rt + rp.rc) / 2
	if rp.rc > rp.cfg.LineRate {
		rp.rc = rp.cfg.LineRate
	}
	if rp.rc > old {
		rp.RateIncreases++
	}
	// Idle the timers once fully recovered and calm.
	if rp.rc >= rp.cfg.LineRate && rp.alpha < 1e-3 {
		rp.active = false
	}
	rp.notify(old)
}

// NP is the per-flow notification point at a receiver: it decides
// whether an arriving ECN-marked packet should trigger a CNP, enforcing
// the minimum CNP interval.
type NP struct {
	cfg     Config
	lastCNP sim.Time
	hasSent bool

	// CNPsSent counts emitted CNPs.
	CNPsSent uint64
}

// NewNP returns a notification point.
func NewNP(cfg Config) *NP {
	return &NP{cfg: cfg.WithDefaults()}
}

// OnMarkedPacket reports whether a CNP should be sent for an ECN-marked
// packet arriving at time now.
func (np *NP) OnMarkedPacket(now sim.Time) bool {
	if np.hasSent && now-np.lastCNP < np.cfg.CNPInterval {
		return false
	}
	np.lastCNP = now
	np.hasSent = true
	np.CNPsSent++
	return true
}

// Instrument registers the reaction point's target rate and congestion
// estimate as recorder-only series (the fabric registers the current
// rate for every scheme).
func (rp *RP) Instrument(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("dcqcn", "target_gbps", obs.Probe, func() float64 { return rp.rt / 1e9 }, labels...)
	reg.GaugeFunc("dcqcn", "alpha", obs.Probe, func() float64 { return rp.alpha }, labels...)
}
