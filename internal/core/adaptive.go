package core

// Adaptive SRC: a resilience state machine layered over the controller.
// The paper trains the TPM offline and assumes the device stays in its
// trained regime and telemetry stays fresh; this file handles the runs
// where neither holds. Two mechanisms:
//
//   - In-run retraining. The controller accumulates (Ch, w) → measured
//     throughput samples into a SampleWindow and periodically refits a
//     small random forest on the sim clock. The candidate is promoted
//     only if its windowed accuracy beats the incumbent by PromoteMargin
//     (hysteresis — a noisy tie never thrashes the model), with typed
//     obs events for train/promote/reject.
//
//   - A degradation ladder, Predictive → Retraining → ModelFree →
//     Static. Windowed prediction error drives the upper rungs;
//     telemetry staleness (ControllerConfig.StaleAfter) drops straight
//     to Static. The ladder is every controller's degraded-mode state:
//     without adaptation only its Predictive↔Static edge is used, with
//     no dwell. ModelFree is an AIMD weight controller in the shape of a
//     classic rate controller (cap + multiplicative backoff): the read
//     share rises additively toward the demanded rate while healthy and
//     is cut multiplicatively on congestion pressure. Descents are
//     immediate (they are safety reactions); ascents require both
//     sustained healthy windows and a DwellTime gap, so the ladder can
//     never oscillate faster than the dwell.
//
// Everything runs on the simulation clock off deterministic inputs
// (forest fitting is internally parallel but a pure function of the
// samples and seed), so adaptive runs stay byte-reproducible.

import (
	"bytes"
	"fmt"
	"math"

	"srcsim/internal/ml"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
	"srcsim/internal/sweep/cache"
)

// LadderState names one rung of the adaptive degradation ladder, best
// (fully predictive) first.
type LadderState int

const (
	// LadderPredictive: the trained TPM drives weight decisions (Alg. 1)
	// and its windowed prediction error is trusted.
	LadderPredictive LadderState = iota
	// LadderRetraining: prediction error crossed ErrDegrade; the
	// incumbent TPM still drives decisions while retraining works to
	// produce a better model.
	LadderRetraining
	// LadderModelFree: the model is not trustworthy (error crossed
	// ErrHard or retraining kept rejecting); an AIMD controller adjusts
	// weights from observed signals alone. Retraining continues in the
	// background so a promoted model can win the rung back.
	LadderModelFree
	// LadderStatic: telemetry is stale — the feature window (and
	// AIMD's observations) describe traffic that no longer exists — so
	// the conservative static FallbackWeight is pinned until commands
	// flow again. The only degraded rung a non-adaptive controller uses.
	LadderStatic
)

// String implements fmt.Stringer.
func (s LadderState) String() string {
	switch s {
	case LadderPredictive:
		return "Predictive"
	case LadderRetraining:
		return "Retraining"
	case LadderModelFree:
		return "ModelFree"
	case LadderStatic:
		return "Static"
	default:
		return "unknown-ladder-state"
	}
}

// LadderTransition records one ladder move for the run ledger.
type LadderTransition struct {
	At     sim.Time
	From   LadderState
	To     LadderState
	Reason string
}

// AdaptiveConfig arms and tunes adaptive SRC. The zero value disables
// adaptation entirely and preserves the controller's pre-adaptive
// behaviour byte for byte.
type AdaptiveConfig struct {
	// Enabled arms the ladder and in-run retraining.
	Enabled bool

	// ObserveEvery is the cadence of measured-throughput observations
	// fed by the cluster (default 1 ms).
	ObserveEvery sim.Time
	// WindowSamples caps the sliding training window (default 128).
	WindowSamples int

	// MinRetrainSamples gates the first retrain (default 24).
	MinRetrainSamples int
	// RetrainEvery is the minimum sim-time gap between retrains
	// (default 10 ms).
	RetrainEvery sim.Time
	// RetrainTrees sizes the in-run forest — smaller than the offline
	// 100-tree model so refits stay cheap (default 20).
	RetrainTrees int
	// PromoteMargin is the accuracy hysteresis: a candidate must beat
	// the incumbent's windowed accuracy by this much (default 0.02).
	PromoteMargin float64
	// MaxRejects demotes Retraining → ModelFree after this many
	// consecutive rejected candidates (default 4).
	MaxRejects int

	// ErrWindow is the number of observations in the calibration ring
	// (default 6); transitions fire on the ring's aggregate error —
	// |Σpred − Σmeas| / max(Σpred, Σmeas) — once it has filled. The ring
	// resets on every descent, so consecutive descents are at least a
	// ring-fill apart; ascents keep it (the model being judged did not
	// change), and a promotion rebuilds it by replaying the recent
	// sample tail through the promoted model.
	ErrWindow int
	// ErrDegrade demotes Predictive → Retraining (default 0.35).
	ErrDegrade float64
	// ErrHard demotes Retraining → ModelFree (default 0.60).
	ErrHard float64
	// ErrHealthy is the aggregate-error ceiling for an observation to
	// count toward recovery (default 0.25).
	ErrHealthy float64

	// DwellTime is the minimum gap after any transition before an
	// ascent may fire (default 3 ms) — the anti-oscillation hysteresis.
	DwellTime sim.Time
	// RecoverAfter is the consecutive healthy observations required
	// before ascending one rung (default 4).
	RecoverAfter int

	// AIMDStep is ModelFree's additive decrease of the write weight per
	// healthy rate event — the read share rises toward demand (default 1).
	AIMDStep float64
	// AIMDBackoff is ModelFree's multiplicative raise of the write
	// weight on congestion pressure — consecutive pressure events
	// compound exponentially, capped at ControllerConfig.MaxW
	// (default 1.5).
	AIMDBackoff float64

	// Cache, when non-nil, warm-starts retraining: candidate models are
	// content-addressed by their window samples, so a re-run (or a
	// resumed sweep) loads instead of refitting. Loading is
	// byte-equivalent to training — the key covers every input — so the
	// cache never changes results.
	Cache *cache.Cache
}

// Validate rejects values withDefaults would silently replace: a
// negative duration, count or threshold (zero picks the default), and an
// AIMDBackoff in (0, 1], which would not back off at all.
func (a AdaptiveConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ObserveEvery", float64(a.ObserveEvery)},
		{"WindowSamples", float64(a.WindowSamples)},
		{"MinRetrainSamples", float64(a.MinRetrainSamples)},
		{"RetrainEvery", float64(a.RetrainEvery)},
		{"RetrainTrees", float64(a.RetrainTrees)},
		{"PromoteMargin", a.PromoteMargin},
		{"MaxRejects", float64(a.MaxRejects)},
		{"ErrWindow", float64(a.ErrWindow)},
		{"ErrDegrade", a.ErrDegrade},
		{"ErrHard", a.ErrHard},
		{"ErrHealthy", a.ErrHealthy},
		{"DwellTime", float64(a.DwellTime)},
		{"RecoverAfter", float64(a.RecoverAfter)},
		{"AIMDStep", a.AIMDStep},
		{"AIMDBackoff", a.AIMDBackoff},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: Adaptive.%s %g is negative", f.name, f.v)
		}
	}
	if a.AIMDBackoff > 0 && a.AIMDBackoff <= 1 {
		return fmt.Errorf("core: Adaptive.AIMDBackoff %g must exceed 1", a.AIMDBackoff)
	}
	return nil
}

// withDefaults fills unset fields.
func (a AdaptiveConfig) withDefaults() AdaptiveConfig {
	if a.ObserveEvery <= 0 {
		a.ObserveEvery = sim.Millisecond
	}
	if a.WindowSamples <= 0 {
		a.WindowSamples = 128
	}
	if a.MinRetrainSamples <= 0 {
		a.MinRetrainSamples = 24
	}
	if a.RetrainEvery <= 0 {
		a.RetrainEvery = 10 * sim.Millisecond
	}
	if a.RetrainTrees <= 0 {
		a.RetrainTrees = 20
	}
	if a.PromoteMargin <= 0 {
		a.PromoteMargin = 0.02
	}
	if a.MaxRejects <= 0 {
		a.MaxRejects = 4
	}
	if a.ErrWindow <= 0 {
		a.ErrWindow = 6
	}
	if a.ErrDegrade <= 0 {
		a.ErrDegrade = 0.35
	}
	if a.ErrHard <= 0 {
		a.ErrHard = 0.60
	}
	if a.ErrHealthy <= 0 {
		a.ErrHealthy = 0.25
	}
	if a.DwellTime <= 0 {
		a.DwellTime = 3 * sim.Millisecond
	}
	if a.RecoverAfter <= 0 {
		a.RecoverAfter = 4
	}
	if a.AIMDStep <= 0 {
		a.AIMDStep = 1
	}
	if a.AIMDBackoff <= 1 {
		a.AIMDBackoff = 1.5
	}
	return a
}

// adaptiveTrainEpoch versions the in-run retraining pipeline for cache
// keys (bump on any change to the candidate hyperparameters or the
// sample layout).
const adaptiveTrainEpoch = 1

// adaptiveState is the controller's retraining and ModelFree state; nil
// when adaptation is disabled. The ladder rung itself lives on the
// Controller.
type adaptiveState struct {
	cfg AdaptiveConfig

	window  *SampleWindow
	errs    *errRing
	healthy int // consecutive healthy observations toward an ascent

	lastRetrain sim.Time
	haveRetrain bool
	rejects     int // consecutive rejected candidates (Retraining rung)

	aimdW    float64
	pressure int // consecutive pressure events (exponential backoff depth)
	// AIMD adjusts at most once per ObserveEvery quantum (DCQCN rate
	// events fire at RTT scale — reacting to each one would thrash the
	// weight several times inside one measured interval, corrupting
	// both the control and the shadow scoring that decides recovery).
	lastAimd       sim.Time
	lastAimdDemand float64
	haveAimd       bool

	// frozen stops all ladder motion and retraining once the cluster
	// reports the workload fully accounted (see FreezeAdaptation).
	frozen bool

	retrains, promotions, rejections uint64
}

// newAdaptiveState builds ladder state from a resolved config.
func newAdaptiveState(cfg AdaptiveConfig) *adaptiveState {
	return &adaptiveState{
		cfg:    cfg,
		window: NewSampleWindow(cfg.WindowSamples),
		errs:   newErrRing(cfg.ErrWindow),
		aimdW:  1,
	}
}

// Adaptive reports whether the adaptive ladder is armed.
func (c *Controller) Adaptive() bool { return c.adaptive != nil }

// LadderState returns the current rung.
func (c *Controller) LadderState() LadderState { return c.state }

// Ladder returns the transition ledger (nil when nothing ever
// transitioned). The slice is shared; do not mutate it.
func (c *Controller) Ladder() []LadderTransition { return c.ladder }

// staticMoves counts the ledger's Static entries (into true) or exits
// (into false).
func (c *Controller) staticMoves(into bool) float64 {
	var n float64
	for _, lt := range c.ladder {
		if (into && lt.To == LadderStatic) || (!into && lt.From == LadderStatic) {
			n++
		}
	}
	return n
}

// AdaptStats returns the retraining counters.
func (c *Controller) AdaptStats() (retrains, promotions, rejections uint64) {
	if c.adaptive == nil {
		return 0, 0, 0
	}
	return c.adaptive.retrains, c.adaptive.promotions, c.adaptive.rejections
}

// FreezeAdaptation stops ladder transitions, observation intake, and
// retraining. The cluster calls it once every submitted request is
// accounted: during the post-workload drain telemetry goes legitimately
// silent and throughput trickles toward zero, signals that describe the
// end of the workload rather than the system's health — feeding them to
// the ladder would thrash it against phantom degradation. The rung in
// force keeps steering whatever late traffic remains.
func (c *Controller) FreezeAdaptation() {
	if c.adaptive != nil {
		c.adaptive.frozen = true
	}
}

// telemetryStale reports whether the monitor has gone silent past
// StaleAfter (always false when the watchdog is disarmed).
func (c *Controller) telemetryStale(at sim.Time) bool {
	if c.Cfg.StaleAfter <= 0 {
		return false
	}
	last, ok := c.Monitor.LastRecordAt()
	return !ok || at-last > c.Cfg.StaleAfter
}

// Observe feeds one measured-throughput interval (bits/s over the last
// ObserveEvery, at array scale) into the adaptive machinery: it appends
// a training sample, scores the incumbent model's shadow prediction at
// the applied weight, drives ladder transitions, and retrains when due.
// A no-op when adaptation is disabled.
func (c *Controller) Observe(at sim.Time, readBps, writeBps float64) {
	a := c.adaptive
	if a == nil || a.frozen {
		return
	}
	if c.telemetryStale(at) {
		c.ladderTo(at, LadderStatic, "telemetry-stale")
		return
	}
	if c.state == LadderStatic {
		// Telemetry is fresh again: count healthy intervals toward the
		// ascent back to ModelFree. The feature window may still be
		// sparse, so nothing is sampled from this rung.
		a.healthy++
		if a.healthy >= a.cfg.RecoverAfter {
			c.ladderTo(at, LadderModelFree, "telemetry-fresh")
		}
		return
	}
	if readBps <= 0 && writeBps <= 0 {
		return // idle interval: nothing measured, nothing to learn
	}
	ch := c.Monitor.Snapshot(at)
	live := false
	for _, v := range ch {
		if v != 0 {
			live = true
			break
		}
	}
	if !live {
		return // empty feature window: the sample would be garbage
	}
	w := c.SSQ.WeightRatio()
	scale := c.Cfg.Scale
	measuredR, measuredW := readBps/scale, writeBps/scale
	a.window.Push(Sample{Ch: ch, W: w, TputR: measuredR, TputW: measuredW})

	// Shadow prediction at the applied weight: in Predictive/Retraining
	// this is (approximately) the decision the TPM just made; in
	// ModelFree it asks whether the incumbent model has become
	// trustworthy again. The ring aggregates over ErrWindow intervals
	// so bursty arrival noise cancels and only persistent calibration
	// bias moves the ladder.
	predR, _ := c.TPM.Predict(ch, w)
	if predR < 0 {
		predR = 0
	}
	a.errs.Push(predR, measuredR)
	full := a.errs.Full()
	aggErr := a.errs.AggErr()

	// While the ring is refilling (a descent reset it) there is no
	// verdict either way, so the healthy streak is left alone rather
	// than zeroed — an unfilled ring must not wipe ascent progress.
	switch c.state {
	case LadderPredictive:
		if full && aggErr >= a.cfg.ErrDegrade {
			c.ladderTo(at, LadderRetraining, "prediction-error")
		}
	case LadderRetraining:
		if full && aggErr >= a.cfg.ErrHard {
			c.ladderTo(at, LadderModelFree, "prediction-error-hard")
		} else if full && aggErr <= a.cfg.ErrHealthy {
			a.healthy++
			if a.healthy >= a.cfg.RecoverAfter {
				c.ladderTo(at, LadderPredictive, "healthy")
			}
		} else if full {
			a.healthy = 0
		}
	case LadderModelFree:
		if full && aggErr <= a.cfg.ErrHealthy {
			a.healthy++
			if a.healthy >= a.cfg.RecoverAfter {
				c.ladderTo(at, LadderRetraining, "model-trustworthy")
			}
		} else if full {
			a.healthy = 0
		}
	}

	// Periodic retraining runs on every rung but Static — in ModelFree
	// a promoted candidate is how the model wins its rung back after a
	// lasting regime change.
	due := !a.haveRetrain || at-a.lastRetrain >= a.cfg.RetrainEvery
	if due && a.window.Len() >= a.cfg.MinRetrainSamples {
		c.retrainNow(at)
	}
}

// ladderTo moves the ladder to rung to. Descents apply immediately
// (they are safety reactions); with adaptation armed, ascents are
// refused until DwellTime has passed since the last transition, which
// bounds oscillation. Entering Static pins FallbackWeight.
func (c *Controller) ladderTo(at sim.Time, to LadderState, reason string) {
	a := c.adaptive
	if c.state == to || (a != nil && a.frozen) {
		return
	}
	if a != nil && to < c.state && at-c.lastTransition < a.cfg.DwellTime {
		return // ascent inside the dwell window: hold the rung
	}
	from := c.state
	c.state = to
	c.lastTransition = at
	c.ladder = append(c.ladder, LadderTransition{At: at, From: from, To: to, Reason: reason})
	if a != nil {
		a.healthy, a.rejects, a.pressure = 0, 0, 0
		if to > from {
			// A descent judges the lower rung on fresh evidence — and
			// spaces consecutive descents at least a ring-fill apart.
			// Ascents keep the ring: the model it scores did not change,
			// and the full ring of healthy verdicts that earned this rung
			// is exactly the evidence the next rung starts from.
			a.errs.Reset()
		}
		if to == LadderModelFree {
			// Seed AIMD from the weight in force so the hand-off is smooth.
			a.aimdW = c.SSQ.WeightRatio()
			if a.aimdW < 1 {
				a.aimdW = 1
			}
			a.haveAimd = false
		}
	}
	if to == LadderStatic {
		w := c.Cfg.FallbackWeight
		c.SSQ.SetWeights(1, w)
		c.Events = append(c.Events, AdjustEvent{At: at, DemandedBps: c.lastDemand, WeightRatio: w})
		if o := c.obs; o != nil {
			o.weightRatio.Set(float64(w))
		}
	}
	if o := c.obs; o != nil {
		o.sc.Instant(at, "core", "ladder "+o.name+" "+from.String()+">"+to.String()+" ("+reason+")",
			obs.Num("from", float64(from)),
			obs.Num("to", float64(to)))
	}
}

// adaptiveRateEvent dispatches a (non-suppressed, fresh-telemetry)
// congestion event by ladder rung. Predictive and Retraining keep the
// paper's Alg. 1 TPM path; ModelFree runs AIMD; Static holds the
// fallback weight.
func (c *Controller) adaptiveRateEvent(at sim.Time, demandedBps float64) {
	switch c.state {
	case LadderStatic:
		// The fallback weight is pinned by the transition; ascents are
		// driven by Observe, which watches telemetry freshness.
		return
	case LadderModelFree:
		c.aimdAdjust(at, demandedBps)
	default:
		c.tpmAdjust(at, demandedBps)
	}
}

// aimdAdjust is the ModelFree weight controller: a congestion pressure
// event (DCQCN demanding less than at the previous adjustment — its
// reaction to ECN/CNP feedback) cuts the read share multiplicatively by
// raising the write weight, compounding over consecutive pressure
// events; a healthy event lowers the write weight additively so the
// read share climbs back toward demand. Capped at MaxW, floor at fair
// round-robin. Adjustments are paced to one per ObserveEvery quantum —
// rate events arrive at RTT scale, and reacting to each would thrash
// the weight several times inside one measured interval.
func (c *Controller) aimdAdjust(at sim.Time, demandedBps float64) {
	a := c.adaptive
	if a.haveAimd && at-a.lastAimd < a.cfg.ObserveEvery {
		return // hold inside the quantum
	}
	pressure := a.haveAimd && demandedBps < a.lastAimdDemand
	a.lastAimd, a.lastAimdDemand, a.haveAimd = at, demandedBps, true
	if pressure {
		a.pressure++
		a.aimdW *= a.cfg.AIMDBackoff
		if maxW := float64(c.Cfg.MaxW); a.aimdW > maxW {
			a.aimdW = maxW
		}
	} else {
		a.pressure = 0
		a.aimdW -= a.cfg.AIMDStep
		if a.aimdW < 1 {
			a.aimdW = 1
		}
	}
	w := int(math.Round(a.aimdW))
	if w < 1 {
		w = 1
	}
	c.SSQ.SetWeights(1, w)
	c.Events = append(c.Events, AdjustEvent{At: at, DemandedBps: demandedBps, WeightRatio: w})
	if o := c.obs; o != nil {
		o.adjustments.Inc()
		o.weightRatio.Set(float64(w))
		o.sc.Instant(at, "core", "aimd "+o.name,
			obs.Num("w", float64(w)),
			obs.Num("demanded_gbps", demandedBps/1e9),
			obs.Num("pressure_run", float64(a.pressure)))
		o.sc.Counter(at, "core", "weight_ratio "+o.name, float64(w))
	}
}

// retrainNow fits a candidate model on the sliding window and promotes
// it only if its windowed accuracy beats the incumbent by
// PromoteMargin. With a cache armed, candidates are content-addressed
// by (epoch, hyperparameters, samples) for warm starts.
func (c *Controller) retrainNow(at sim.Time) {
	a := c.adaptive
	a.lastRetrain = at
	a.haveRetrain = true
	a.retrains++
	samples := a.window.Samples()

	trees := a.cfg.RetrainTrees
	cand := &TPM{NewRegressor: func() ml.Regressor {
		return &ml.RandomForestRegressor{Trees: trees, MaxFeatures: (NumFeatures + 1) / 3, Seed: 1}
	}}
	var key string
	loaded := false
	if a.cfg.Cache != nil {
		key = cache.Key("adaptive-tpm", adaptiveTrainEpoch, NumFeatures, trees, samples)
		if b, ok := a.cfg.Cache.Get(key); ok {
			if m, err := LoadTPM(bytes.NewReader(b)); err == nil {
				cand = m
				loaded = true
			}
		}
	}
	if !loaded {
		if err := cand.Train(samples); err != nil {
			// Degenerate window: count a rejection and move on.
			c.noteReject(at)
			return
		}
		if a.cfg.Cache != nil {
			a.cfg.Cache.Put(key, cand.Save) //nolint:errcheck // cache is advisory
		}
	}
	if o := c.obs; o != nil {
		o.sc.Instant(at, "core", "retrain "+o.name,
			obs.Num("window_samples", float64(len(samples))))
	}

	candAcc := cand.Accuracy(samples)
	incAcc := c.TPM.Accuracy(samples)
	if candAcc > incAcc+a.cfg.PromoteMargin {
		c.TPM = cand
		a.promotions++
		a.rejects = 0
		// The ring scored the retired model; rebuild it by replaying the
		// recent sample tail through the promoted one. An empty ring
		// would cost a full refill before any verdict — racing the next
		// retrain — when the evidence to judge the new model is already
		// in the window.
		a.errs.Reset()
		tail := samples
		if len(tail) > a.cfg.ErrWindow {
			tail = tail[len(tail)-a.cfg.ErrWindow:]
		}
		for _, s := range tail {
			p, _ := cand.Predict(s.Ch, s.W)
			if p < 0 {
				p = 0
			}
			a.errs.Push(p, s.TputR)
		}
		if o := c.obs; o != nil {
			o.sc.Instant(at, "core", "promote "+o.name,
				obs.Num("candidate_acc", candAcc),
				obs.Num("incumbent_acc", incAcc))
		}
		return
	}
	c.noteReject(at)
	if o := c.obs; o != nil {
		o.sc.Instant(at, "core", "reject "+o.name,
			obs.Num("candidate_acc", candAcc),
			obs.Num("incumbent_acc", incAcc))
	}
}

// noteReject counts a rejected candidate and demotes Retraining →
// ModelFree after MaxRejects consecutive rejections.
func (c *Controller) noteReject(at sim.Time) {
	a := c.adaptive
	a.rejections++
	if c.state == LadderRetraining {
		a.rejects++
		if a.rejects >= a.cfg.MaxRejects {
			c.ladderTo(at, LadderModelFree, "retrain-rejected")
		}
	}
}
