package core

import (
	"fmt"
	"math"

	"srcsim/internal/nvme"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// ControllerConfig tunes the SRC dynamic adjustment (Alg. 1).
type ControllerConfig struct {
	// Window is the prediction window δ (default 10 ms).
	Window sim.Time
	// Tau is the convergence threshold on relative read-throughput
	// change between successive weight ratios (default 0.10).
	Tau float64
	// MaxW bounds the weight-ratio search (default 32).
	MaxW int
	// MinEventGap rate-limits adjustments: congestion notifications
	// arriving closer than this reuse the previous decision (default
	// 1 ms; DCQCN emits rate changes far faster than the SSD's
	// throughput moves, so reacting to each one just thrashes weights).
	MinEventGap sim.Time
	// RateEpsilon suppresses reactions to negligible demanded-rate
	// changes, as a fraction of the previous demand (default 0.05).
	RateEpsilon float64
	// Scale multiplies TPM predictions before comparison with the
	// demanded rate; set it to the number of identical SSD instances
	// when the target runs a flash array and the TPM was trained on a
	// single device (default 1).
	Scale float64
	// StaleAfter, when positive, arms the stale-telemetry watchdog: if a
	// congestion event arrives and the monitor has seen no command for
	// longer than StaleAfter, the controller stops trusting the TPM (its
	// feature window describes traffic that no longer exists) and
	// descends the ladder to Static, pinning FallbackWeight until
	// telemetry resumes. Zero (the default) disables degradation and
	// preserves pre-fault behaviour exactly.
	StaleAfter sim.Time
	// FallbackWeight is the static read:write weight ratio applied on
	// the Static rung, and by a control-plane lease agent cut off from
	// this controller (default 1 — the fair round-robin baseline).
	FallbackWeight int
	// Adaptive arms online adaptation (in-run TPM retraining plus the
	// Predictive→Retraining→ModelFree→Static degradation ladder; see
	// adaptive.go). The zero value keeps the controller byte-identical
	// to its pre-adaptive behaviour.
	Adaptive AdaptiveConfig
}

// Validate rejects a negative FallbackWeight, which withDefaults would
// otherwise silently replace (zero picks the default), a negative
// StaleAfter, which would silently disarm the watchdog, and an invalid
// Adaptive block.
func (c ControllerConfig) Validate() error {
	if c.FallbackWeight < 0 {
		return fmt.Errorf("core: FallbackWeight %d is negative", c.FallbackWeight)
	}
	if c.StaleAfter < 0 {
		return fmt.Errorf("core: StaleAfter %v is negative", c.StaleAfter)
	}
	return c.Adaptive.Validate()
}

// withDefaults fills unset fields.
func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Window <= 0 {
		c.Window = 10 * sim.Millisecond
	}
	if c.Tau <= 0 {
		c.Tau = 0.10
	}
	if c.MaxW <= 0 {
		c.MaxW = 32
	}
	if c.MinEventGap <= 0 {
		c.MinEventGap = sim.Millisecond
	}
	if c.RateEpsilon <= 0 {
		c.RateEpsilon = 0.05
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.FallbackWeight <= 0 {
		c.FallbackWeight = 1
	}
	if c.Adaptive.Enabled {
		c.Adaptive = c.Adaptive.withDefaults()
	}
	return c
}

// AdjustEvent records one applied weight adjustment for analysis
// (Fig. 9's vertical dashed lines).
type AdjustEvent struct {
	At           sim.Time
	DemandedBps  float64
	WeightRatio  int
	PredictedRBp float64 // predicted read throughput at the chosen w
}

// WeightSink is where the controller applies its decisions: a single
// SSQ, or an SSQGroup spanning a target's flash array.
type WeightSink interface {
	SetWeights(read, write int)
	WeightRatio() float64
}

// SSQGroup fans weight updates out to every SSQ of a flash array.
type SSQGroup []*nvme.SSQ

// SetWeights implements WeightSink.
func (g SSQGroup) SetWeights(read, write int) {
	for _, s := range g {
		s.SetWeights(read, write)
	}
}

// WeightRatio implements WeightSink (all members share one ratio).
func (g SSQGroup) WeightRatio() float64 {
	if len(g) == 0 {
		return 1
	}
	return g[0].WeightRatio()
}

// Controller is the SRC decision loop: it owns the monitor, consults the
// TPM, and adjusts the SSQ weights on congestion events.
type Controller struct {
	Cfg     ControllerConfig
	TPM     *TPM
	Monitor *Monitor
	SSQ     WeightSink

	// Events logs every applied adjustment.
	Events []AdjustEvent

	lastEventAt sim.Time
	lastDemand  float64
	haveEvent   bool

	// The degradation ladder (see adaptive.go) is the controller's only
	// degraded-mode state: the rung in force, the transition ledger, and
	// the time of the last move. Without adaptation only the
	// Predictive↔Static edge is used, driven by telemetry staleness.
	state          LadderState
	ladder         []LadderTransition
	lastTransition sim.Time

	// adaptive holds the in-run retraining and ModelFree machinery; nil
	// unless Cfg.Adaptive.Enabled (see adaptive.go).
	adaptive *adaptiveState

	obs *ctlObs
}

// ctlObs holds the trace scope and the handles for quantities no
// controller field holds; nil when observability is off.
type ctlObs struct {
	sc          *obs.Scope
	name        string
	rateEvents  *obs.Counter
	suppressed  *obs.Counter
	adjustments *obs.Counter
	predictions *obs.Counter
	weightRatio *obs.Gauge
}

// Instrument attaches a metrics registry and/or trace scope to the
// controller (either may be nil). name distinguishes controllers when a
// cluster runs several targets; it prefixes trace track names. The
// Static rung registers as read-through series on every controller:
// degraded_entries and recoveries count its entries and exits, degraded
// reads 1 while it is in force. With adaptation armed, the transition
// count, rung and retrain counters register too (they are absent
// otherwise, keeping non-adaptive snapshots unchanged).
func (c *Controller) Instrument(reg *obs.Registry, sc *obs.Scope, name string, labels ...obs.Label) {
	if reg == nil && !sc.Enabled() {
		return
	}
	c.obs = &ctlObs{
		sc:          sc,
		name:        name,
		rateEvents:  reg.Counter("core", "rate_events", labels...),
		suppressed:  reg.Counter("core", "rate_events_suppressed", labels...),
		adjustments: reg.Counter("core", "adjustments", labels...),
		predictions: reg.Counter("core", "tpm_predictions", labels...),
		weightRatio: reg.Gauge("core", "weight_ratio_last", labels...),
	}
	reg.CounterFunc("core", "degraded_entries", func() float64 { return c.staticMoves(true) }, labels...)
	reg.CounterFunc("core", "recoveries", func() float64 { return c.staticMoves(false) }, labels...)
	reg.GaugeFunc("core", "degraded", obs.Last, func() float64 {
		if c.state == LadderStatic {
			return 1
		}
		return 0
	}, labels...)
	if a := c.adaptive; a != nil {
		reg.CounterFunc("core", "ladder_transitions", func() float64 { return float64(len(c.ladder)) }, labels...)
		reg.GaugeFunc("core", "ladder_state", obs.Last, func() float64 { return float64(c.state) }, labels...)
		reg.CounterFunc("core", "retrains", obs.U64(&a.retrains), labels...)
		reg.CounterFunc("core", "retrain_promotions", obs.U64(&a.promotions), labels...)
		reg.CounterFunc("core", "retrain_rejections", obs.U64(&a.rejections), labels...)
	}
}

// NewController wires a controller around a trained TPM and a target's
// SSQ (or SSQGroup for arrays).
func NewController(cfg ControllerConfig, tpm *TPM, ssq WeightSink) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		Cfg:     cfg,
		TPM:     tpm,
		Monitor: NewMonitor(cfg.Window),
		SSQ:     ssq,
	}
	if cfg.Adaptive.Enabled {
		c.adaptive = newAdaptiveState(cfg.Adaptive)
	}
	return c
}

// PredictWeightRatio implements the paper's Alg. 1 "PredictWeightRatio":
// search w ≥ 1 for the predicted read throughput closest to the demanded
// data sending rate r (bits/s), stopping when predictions converge
// (relative change < Tau) or MaxW is reached.
func (c *Controller) PredictWeightRatio(rBps float64, ch []float64) int {
	w := 1
	best := 1
	tputR, _ := c.predict(ch, float64(w))
	tputR *= c.Cfg.Scale
	if tputR < rBps {
		return 1
	}
	minDis := math.Abs(tputR - rBps)
	preTput := tputR
	for {
		w++
		if w > c.Cfg.MaxW {
			break
		}
		tputR, _ = c.predict(ch, float64(w))
		tputR *= c.Cfg.Scale
		if dis := math.Abs(tputR - rBps); dis < minDis {
			minDis = dis
			best = w
		}
		curTput := tputR
		if preTput > 0 && math.Abs(preTput-curTput)/preTput < c.Cfg.Tau {
			break
		}
		preTput = curTput
	}
	return best
}

// predict wraps TPM.Predict with the prediction counter.
func (c *Controller) predict(ch []float64, w float64) (tputR, tputW float64) {
	if c.obs != nil {
		c.obs.predictions.Inc()
	}
	return c.TPM.Predict(ch, w)
}

// OnRateEvent is the "DynamicAdjustment" entry point: DCQCN notifies a
// new demanded data sending rate (bits/s) at time at — a pause event when
// lower than before, a retrieval event when higher. The controller
// profiles the preceding window, picks w, and applies it to the SSQ.
func (c *Controller) OnRateEvent(at sim.Time, demandedBps float64) {
	if c.obs != nil {
		c.obs.rateEvents.Inc()
	}
	if c.haveEvent {
		if at-c.lastEventAt < c.Cfg.MinEventGap {
			if c.obs != nil {
				c.obs.suppressed.Inc()
			}
			return
		}
		if c.lastDemand > 0 && math.Abs(demandedBps-c.lastDemand)/c.lastDemand < c.Cfg.RateEpsilon {
			if c.obs != nil {
				c.obs.suppressed.Inc()
			}
			return
		}
	}
	c.lastEventAt = at
	c.lastDemand = demandedBps
	c.haveEvent = true

	if c.telemetryStale(at) {
		// Telemetry stalled: the monitor window describes traffic that no
		// longer exists, so a TPM prediction would steer on stale
		// features. The Static rung pins the fallback weight until
		// commands flow again.
		c.ladderTo(at, LadderStatic, "telemetry-stale")
		return
	}
	if c.adaptive != nil {
		c.adaptiveRateEvent(at, demandedBps)
		return
	}
	if c.state == LadderStatic {
		c.ladderTo(at, LadderPredictive, "telemetry-fresh")
	}
	c.tpmAdjust(at, demandedBps)
}

// tpmAdjust is the TPM-driven adjustment body (Alg. 1): profile the
// preceding window, pick w, apply it. Serves the Predictive and
// Retraining rungs.
func (c *Controller) tpmAdjust(at sim.Time, demandedBps float64) {
	ch := c.Monitor.Snapshot(at)
	w := c.PredictWeightRatio(demandedBps, ch)
	pr, _ := c.predict(ch, float64(w))
	pr *= c.Cfg.Scale
	c.SSQ.SetWeights(1, w)
	c.Events = append(c.Events, AdjustEvent{
		At: at, DemandedBps: demandedBps, WeightRatio: w, PredictedRBp: pr,
	})
	if o := c.obs; o != nil {
		o.adjustments.Inc()
		o.weightRatio.Set(float64(w))
		o.sc.Instant(at, "core", "adjust "+o.name,
			obs.Num("w", float64(w)),
			obs.Num("demanded_gbps", demandedBps/1e9),
			obs.Num("predicted_read_gbps", pr/1e9))
		o.sc.Counter(at, "core", "weight_ratio "+o.name, float64(w))
	}
}

// CurrentWeightRatio returns the SSQ's active w.
func (c *Controller) CurrentWeightRatio() float64 { return c.SSQ.WeightRatio() }
