package ccaimd

import (
	"testing"

	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

func newTestRP(t *testing.T) (*sim.Engine, *RP) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewRP(eng, Config{LineRate: 10e9})
}

func TestMarkedIntervalCutsProportionalToOvershoot(t *testing.T) {
	eng, rp := newTestRP(t)
	// Every ack marked: fraction 1, g ramps toward 1, every tick above
	// target must cut; with all-marked input the rate must fall hard.
	for i := 0; i < 40; i++ {
		rp.OnAckECN(true)
		eng.Run(eng.Now() + rp.cfg.UpdateInterval)
	}
	if rp.Rate() > 0.5*rp.cfg.LineRate {
		t.Fatalf("rate %v after sustained full marking, want a deep cut", rp.Rate())
	}
	if rp.CongestionLevel() < rp.cfg.TargetCongestion {
		t.Fatalf("congestion level %v below target under full marking", rp.CongestionLevel())
	}
}

func TestCleanAcksRecoverToLineRateAndQuiesce(t *testing.T) {
	eng, rp := newTestRP(t)
	for i := 0; i < 10; i++ {
		rp.OnCongestionSignal()
	}
	throttled := rp.Rate()
	if throttled >= rp.cfg.LineRate {
		t.Fatal("signals did not throttle")
	}
	// A stream of unmarked acks, then silence: the additive path must
	// restore line rate and the ticker must idle (RunUntilIdle returns).
	for i := 0; i < 30; i++ {
		rp.OnAckECN(false)
	}
	eng.RunUntilIdle()
	if rp.Rate() != rp.cfg.LineRate {
		t.Fatalf("rate %v did not recover to line rate", rp.Rate())
	}
}

func TestSignalMonotoneNonIncrease(t *testing.T) {
	_, rp := newTestRP(t)
	prev := rp.Rate()
	for i := 0; i < 100; i++ {
		rp.OnCongestionSignal()
		if rp.Rate() > prev {
			t.Fatalf("signal %d increased rate %v -> %v", i, prev, rp.Rate())
		}
		prev = rp.Rate()
	}
	if rp.Rate() >= rp.cfg.LineRate {
		t.Fatal("signals never cut the rate")
	}
}

func TestListenerFiresOnEveryChange(t *testing.T) {
	eng, rp := newTestRP(t)
	last := rp.Rate()
	rp.SetRateListener(func(old, new float64) {
		if old == new {
			t.Fatalf("listener fired with old == new == %v", old)
		}
		if old != last {
			t.Fatalf("listener old %v does not chain from last reported %v", old, last)
		}
		last = new
	})
	for i := 0; i < 20; i++ {
		rp.OnAckECN(i%3 == 0)
		eng.Run(eng.Now() + rp.cfg.UpdateInterval)
		if rp.Rate() != last {
			t.Fatalf("rate %v moved without a listener event (last %v)", rp.Rate(), last)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	for name, cfg := range map[string]Config{
		"min above line":   {LineRate: 1e9, MinRate: 2e9},
		"target above one": {TargetCongestion: 1},
		"gain above one":   {Gain: 1.5},
		"md cuts all":      {TargetCongestion: 0.5, Md: 2.5},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestInstrument(t *testing.T) {
	_, rp := newTestRP(t)
	reg := obs.NewRegistry()
	rp.Instrument(reg, obs.L("flow", "0"))
	snap := reg.Snapshot()
	if _, ok := snap.Gauges["aimd/cong_level{flow=0}"]; !ok {
		t.Fatalf("missing cong_level series in %v", snap.Gauges)
	}
	reg.Fold()
	if reg.NumSeries() != 0 {
		t.Fatal("recorder-only cong_level series stored by the fold")
	}
}
