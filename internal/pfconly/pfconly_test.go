package pfconly

import (
	"testing"

	"srcsim/internal/sim"
)

func TestFixedCutAndLinearRecovery(t *testing.T) {
	eng := sim.NewEngine()
	rp := NewRP(eng, Config{LineRate: 10e9})
	rp.OnCongestionSignal()
	if rp.Rate() != 5e9 {
		t.Fatalf("rate %v after one signal, want the fixed half cut", rp.Rate())
	}
	// One recovery period restores exactly RecoverBps.
	eng.Run(eng.Now() + rp.cfg.RecoverEvery)
	if rp.Rate() != 5e9+rp.cfg.RecoverBps {
		t.Fatalf("rate %v after one period, want %v", rp.Rate(), 5e9+rp.cfg.RecoverBps)
	}
	// Linear recovery reaches line rate and the timer idles.
	eng.RunUntilIdle()
	if rp.Rate() != rp.cfg.LineRate {
		t.Fatalf("rate %v did not recover to line rate", rp.Rate())
	}
	if rp.RateDecreases != 1 || rp.RateIncreases == 0 {
		t.Fatalf("counters: %d decreases, %d increases", rp.RateDecreases, rp.RateIncreases)
	}
}

func TestSignalsFloorAtMinRate(t *testing.T) {
	eng := sim.NewEngine()
	rp := NewRP(eng, Config{LineRate: 10e9})
	prev := rp.Rate()
	for i := 0; i < 100; i++ {
		rp.OnCongestionSignal()
		if rp.Rate() > prev {
			t.Fatalf("signal %d increased rate %v -> %v", i, prev, rp.Rate())
		}
		prev = rp.Rate()
	}
	if rp.Rate() != rp.cfg.MinRate {
		t.Fatalf("rate %v did not floor at MinRate %v", rp.Rate(), rp.cfg.MinRate)
	}
	if rp.Signals != 100 {
		t.Fatalf("signal counter %d, want 100", rp.Signals)
	}
}

func TestListenerFiresOnEveryChange(t *testing.T) {
	eng := sim.NewEngine()
	rp := NewRP(eng, Config{LineRate: 10e9})
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
	rp.OnCongestionSignal()
	eng.RunUntilIdle()
	if rp.Rate() != last || last != rp.cfg.LineRate {
		t.Fatalf("rate %v / last reported %v, want line rate", rp.Rate(), last)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	for name, cfg := range map[string]Config{
		"min above line": {LineRate: 1e9, MinRate: 2e9},
		"cut above one":  {CutFactor: 1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestRateAndSurface(t *testing.T) {
	eng := sim.NewEngine()
	rp := NewRP(eng, Config{LineRate: 10e9})
	if rp.NeedsAck() {
		t.Fatal("the static RCM needs no per-packet acks")
	}
	rp.OnBytesSent(4096)
	rp.OnAck(10 * sim.Microsecond)
	if rp.Rate() != 10e9 {
		t.Fatalf("rate %v, want 10e9", rp.Rate())
	}
}
