package core

// Ladder property tests (ISSUE 7 satellite 3): under an adversarial
// drive — telemetry that goes silent in stretches, measured throughput
// that swings wildly against the model — the ladder must stay a
// consistent state chain and must never ascend faster than DwellTime
// after the previous transition. Descents are deliberately exempt: they
// are safety reactions and apply immediately.

import (
	"testing"

	"srcsim/internal/nvme"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// adversarialLadderConfig is a deliberately twitchy tuning: tiny error
// ring, hair-trigger thresholds, short dwell. Retraining is disabled by
// an unreachable MinRetrainSamples so the test isolates ladder motion.
func adversarialLadderConfig() ControllerConfig {
	return ControllerConfig{
		Tau: 0.01, MaxW: 64,
		StaleAfter: 400 * sim.Microsecond,
		Adaptive: AdaptiveConfig{
			Enabled:           true,
			ObserveEvery:      100 * sim.Microsecond,
			WindowSamples:     32,
			MinRetrainSamples: 1 << 30,
			ErrWindow:         3,
			ErrDegrade:        0.30,
			ErrHard:           0.50,
			ErrHealthy:        0.20,
			DwellTime:         650 * sim.Microsecond,
			RecoverAfter:      2,
		},
	}
}

// driveAdversarial runs steps observation intervals against a
// controller, with an LCG deciding per step whether telemetry flows,
// how far measured throughput lands from the model, and whether a rate
// event fires. Silent stretches are long enough to trip StaleAfter.
func driveAdversarial(c *Controller, steps int) {
	const q = 100 * sim.Microsecond
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	silent := 0
	for i := 1; i <= steps; i++ {
		at := sim.Time(i) * q
		r := next()
		if silent > 0 {
			silent--
		} else if r%11 == 0 {
			silent = 6 // ~600 µs of silence: trips the 400 µs watchdog
		} else {
			for j := 0; j < 3; j++ {
				c.Monitor.Record(trace.Request{Op: trace.Read, Size: 30000}, at)
				c.Monitor.Record(trace.Request{Op: trace.Write, Size: 20000}, at)
			}
		}
		measured := float64(2+r%19) * 1e9 // 2..20 Gb/s, swinging
		c.Observe(at, measured, measured/3)
		if r%3 == 0 {
			c.OnRateEvent(at, float64(1+r%15)*1e9)
		}
	}
}

// TestLadderDwellProperty: every ascent is at least DwellTime after the
// previous transition, the transition log is a consistent chain, and
// the adversarial drive genuinely exercises the whole ladder (so the
// property is not vacuously true).
func TestLadderDwellProperty(t *testing.T) {
	cfg := adversarialLadderConfig()
	c := NewController(cfg, lawTPM(t), nvme.NewSSQ(1, 1))
	driveAdversarial(c, 600)

	steps := c.Ladder()
	if len(steps) < 6 {
		t.Fatalf("adversarial drive produced only %d transitions; drive is too tame to test the property", len(steps))
	}
	visited := map[LadderState]bool{}
	ascents := 0
	state := LadderPredictive
	var lastAt sim.Time
	for i, tr := range steps {
		if tr.From != state {
			t.Fatalf("transition %d: From=%v, but ladder was %v", i, tr.From, state)
		}
		if tr.To == tr.From {
			t.Fatalf("transition %d: self-loop %v", i, tr.To)
		}
		if tr.At < lastAt {
			t.Fatalf("transition %d: time went backwards (%v after %v)", i, tr.At, lastAt)
		}
		if tr.To < tr.From { // ascent
			ascents++
			if i == 0 {
				t.Fatalf("first transition is an ascent from the top rung: %+v", tr)
			}
			if gap := tr.At - lastAt; gap < cfg.Adaptive.DwellTime {
				t.Fatalf("transition %d: ascent %v->%v only %v after previous transition (dwell %v)",
					i, tr.From, tr.To, gap, cfg.Adaptive.DwellTime)
			}
		}
		state = tr.To
		lastAt = tr.At
		visited[tr.To] = true
	}
	if ascents == 0 {
		t.Fatal("no ascents recorded; the dwell property was never exercised")
	}
	if !visited[LadderStatic] || !visited[LadderModelFree] {
		t.Fatalf("drive never reached the lower rungs (visited %v)", visited)
	}
}

// TestLadderFreeze: after FreezeAdaptation the ladder must not move and
// observations must not accumulate, no matter how adversarial the
// input.
func TestLadderFreeze(t *testing.T) {
	c := NewController(adversarialLadderConfig(), lawTPM(t), nvme.NewSSQ(1, 1))
	driveAdversarial(c, 300)
	n := len(c.Ladder())
	c.FreezeAdaptation()
	driveAdversarial(c, 300)
	if got := len(c.Ladder()); got != n {
		t.Fatalf("ladder moved after freeze: %d -> %d transitions", n, got)
	}
}

// TestObserveWithoutAdaptive: Observe on a non-adaptive controller is a
// no-op, and the ladder accessors report the top rung.
func TestObserveWithoutAdaptive(t *testing.T) {
	c := NewController(ControllerConfig{Tau: 0.01, MaxW: 64}, lawTPM(t), nvme.NewSSQ(1, 1))
	c.Observe(sim.Millisecond, 5e9, 2e9)
	if c.Adaptive() || c.LadderState() != LadderPredictive || c.Ladder() != nil {
		t.Fatalf("non-adaptive controller leaked adaptive state: %v %v %v",
			c.Adaptive(), c.LadderState(), c.Ladder())
	}
	r, p, j := c.AdaptStats()
	if r != 0 || p != 0 || j != 0 {
		t.Fatalf("non-adaptive controller reported retrain stats %d/%d/%d", r, p, j)
	}
}

// TestLadderStaticWithoutAdaptation: a non-adaptive controller's
// stale-telemetry fallback is the ladder's Predictive↔Static edge. A
// stale rate event descends once and pins FallbackWeight, a second
// stale event adds nothing, and the next fresh event ascends and applies
// a TPM weight in the same call. The Static rung's read-through series
// track every move.
func TestLadderStaticWithoutAdaptation(t *testing.T) {
	cfg := ControllerConfig{Tau: 0.01, MaxW: 64, StaleAfter: 500 * sim.Microsecond, FallbackWeight: 8}
	ssq := nvme.NewSSQ(1, 1)
	c := NewController(cfg, lawTPM(t), ssq)
	reg := obs.NewRegistry()
	c.Instrument(reg, nil, "t0")
	series := func() (entries, exits, on float64) {
		s := reg.Snapshot()
		return s.Counters["core/degraded_entries"], s.Counters["core/recoveries"], s.Gauges["core/degraded"]
	}

	c.Monitor.Record(trace.Request{Op: trace.Read, Size: 30000}, 0)
	c.OnRateEvent(sim.Millisecond, 4e9)
	want := LadderTransition{At: sim.Millisecond, From: LadderPredictive, To: LadderStatic, Reason: "telemetry-stale"}
	if got := c.Ladder(); len(got) != 1 || got[0] != want {
		t.Fatalf("stale event ladder %+v, want [%+v]", got, want)
	}
	if len(c.Events) != 1 || c.Events[0].WeightRatio != 8 || ssq.WeightRatio() != 8 {
		t.Fatalf("stale event applied %+v (ssq w=%g), want one event at FallbackWeight 8", c.Events, ssq.WeightRatio())
	}
	if e, x, on := series(); e != 1 || x != 0 || on != 1 {
		t.Fatalf("after descent: degraded_entries %g recoveries %g degraded %g, want 1 0 1", e, x, on)
	}

	c.OnRateEvent(3*sim.Millisecond, 2e9)
	if len(c.Ladder()) != 1 || len(c.Events) != 1 {
		t.Fatalf("second stale event moved state: ladder %+v events %+v", c.Ladder(), c.Events)
	}

	c.Monitor.Record(trace.Request{Op: trace.Read, Size: 30000}, 4800*sim.Microsecond)
	c.OnRateEvent(5*sim.Millisecond, 5e9)
	if got := c.Ladder(); len(got) != 2 || got[1].To != LadderPredictive || got[1].Reason != "telemetry-fresh" {
		t.Fatalf("fresh event ladder %+v, want a telemetry-fresh ascent to Predictive", got)
	}
	// lawTPM's read throughput 20e9/(1+w) meets 5e9 at w=3.
	if len(c.Events) != 2 || c.Events[1].WeightRatio != 3 || c.Events[1].PredictedRBp <= 0 || ssq.WeightRatio() != 3 {
		t.Fatalf("fresh event applied %+v (ssq w=%g), want a TPM decision at w=3", c.Events, ssq.WeightRatio())
	}
	if e, x, on := series(); e != 1 || x != 1 || on != 0 {
		t.Fatalf("after ascent: degraded_entries %g recoveries %g degraded %g, want 1 1 0", e, x, on)
	}
}
