package hpcc

import (
	"testing"

	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

func benignHop(txBytes, tsNs uint64) INTHop {
	return INTHop{Node: 1, Queue: 0, TxBytes: txBytes, TsNs: tsNs, RateBps: 10e9}
}

func TestHotPathAlignsTowardEta(t *testing.T) {
	rp := NewRP(Config{LineRate: 10e9})
	// Deep queue at the bottleneck: U >> Eta, the rate must cut
	// multiplicatively by Eta/U on the very first sample.
	rp.OnINTAck(&INTHeader{Hops: []INTHop{{Node: 1, Queue: 1 << 20, TsNs: 1000, RateBps: 10e9}}})
	if rp.Rate() >= 10e9 {
		t.Fatalf("rate %v did not cut on a hot path (U=%v)", rp.Rate(), rp.Utilisation())
	}
	if rp.Utilisation() <= rp.cfg.Eta {
		t.Fatalf("bottleneck utilisation %v should exceed Eta", rp.Utilisation())
	}
}

func TestCoolPathProbesAdditively(t *testing.T) {
	rp := NewRP(Config{LineRate: 10e9})
	rp.setRate(1e9)
	prev := rp.Rate()
	// Idle path (empty queue, no tx progress): additive WaiBps steps.
	for i := 0; i < 3; i++ {
		rp.OnINTAck(&INTHeader{Hops: []INTHop{benignHop(0, uint64(1000*(i+1)))}})
		if rp.Rate() != prev+rp.cfg.WaiBps {
			t.Fatalf("step %d: rate %v, want additive %v", i, rp.Rate(), prev+rp.cfg.WaiBps)
		}
		prev = rp.Rate()
	}
}

func TestTxRateFromConsecutiveSamples(t *testing.T) {
	rp := NewRP(Config{LineRate: 10e9})
	// First sample establishes the hop reference; the second spans 1 µs
	// in which the port moved 1250 bytes = 10 Gbps: U = 1.0 > Eta.
	rp.OnINTAck(&INTHeader{Hops: []INTHop{benignHop(0, 1000)}})
	rp.OnINTAck(&INTHeader{Hops: []INTHop{benignHop(1250, 2000)}})
	if got := rp.Utilisation(); got < 0.99 || got > 1.01 {
		t.Fatalf("derived utilisation %v, want ~1.0", got)
	}
	if rp.Rate() >= 10e9 {
		t.Fatalf("rate %v did not react to a saturated port", rp.Rate())
	}
}

func TestPathChangeResetsHopReference(t *testing.T) {
	rp := NewRP(Config{LineRate: 10e9})
	rp.OnINTAck(&INTHeader{Hops: []INTHop{benignHop(0, 1000)}})
	// Different switch at the same position (ECMP failover): the stale
	// TxBytes delta must not be interpreted as that hop's rate.
	rp.OnINTAck(&INTHeader{Hops: []INTHop{{Node: 9, Queue: 0, TxBytes: 1 << 40, TsNs: 2000, RateBps: 10e9}}})
	if rp.Utilisation() != 0 {
		t.Fatalf("utilisation %v after path change, want 0", rp.Utilisation())
	}
}

func TestCongestionSignalCutsAndFloors(t *testing.T) {
	rp := NewRP(Config{LineRate: 10e9})
	var events int
	rp.SetRateListener(func(old, new float64) {
		if old == new {
			t.Fatalf("listener fired with old == new == %v", old)
		}
		events++
	})
	prev := rp.Rate()
	for i := 0; i < 200; i++ {
		rp.OnCongestionSignal()
		if rp.Rate() > prev {
			t.Fatalf("signal %d increased rate %v -> %v", i, prev, rp.Rate())
		}
		prev = rp.Rate()
	}
	if rp.Rate() != rp.cfg.MinRate {
		t.Fatalf("rate %v did not floor at MinRate %v", rp.Rate(), rp.cfg.MinRate)
	}
	if events == 0 {
		t.Fatal("rate listener never fired")
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	for name, cfg := range map[string]Config{
		"min above line": {LineRate: 1e9, MinRate: 2e9},
		"eta above one":  {Eta: 1.5},
		"beta too big":   {CNPBeta: 1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestInstrument(t *testing.T) {
	rp := NewRP(Config{LineRate: 10e9})
	reg := obs.NewRegistry()
	rp.Instrument(reg, obs.L("flow", "0"))
	snap := reg.Snapshot()
	if _, ok := snap.Gauges["hpcc/util{flow=0}"]; !ok {
		t.Fatalf("missing util series in %v", snap.Gauges)
	}
	reg.Fold()
	if reg.NumSeries() != 0 {
		t.Fatal("recorder-only util series stored by the fold")
	}
}

// TestNeedsAckAndNoops pins the RateController surface HPCC does not
// use: acks carry no RTT decision and bytes sent no signal.
func TestNeedsAckAndNoops(t *testing.T) {
	rp := NewRP(Config{LineRate: 10e9})
	if !rp.NeedsAck() {
		t.Fatal("HPCC must request per-packet acks for the INT echo")
	}
	rp.OnBytesSent(4096)
	rp.OnAck(50 * sim.Microsecond)
	if rp.Rate() != 10e9 {
		t.Fatalf("no-op hooks moved the rate to %v", rp.Rate())
	}
}
