package ctrlplane

import (
	"encoding/json"
	"testing"

	"srcsim/internal/core"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// recSink records every applied weight with its plane state at apply
// time, standing in for the target's real SSQ group.
type recSink struct {
	r, w    int
	applies []struct{ r, w int }
}

func (s *recSink) SetWeights(read, write int) {
	s.r, s.w = read, write
	s.applies = append(s.applies, struct{ r, w int }{read, write})
}
func (s *recSink) WeightRatio() float64 { return float64(s.w) / float64(s.r) }

// testPlane builds a plane with one registered target over a fresh
// engine. The controller is a real core.Controller with a nil TPM —
// safe as long as the test sends no rate events.
func testPlane(t *testing.T, cfg Config, targets int) (*sim.Engine, *Plane, []*recSink) {
	t.Helper()
	eng := sim.NewEngine()
	cfg.Enabled = true
	p := New(eng, cfg, targets, nil)
	sinks := make([]*recSink, targets)
	for i := 0; i < targets; i++ {
		sinks[i] = &recSink{r: 1, w: 1}
		p.Register(i, sinks[i], func(sink core.WeightSink) *core.Controller {
			return core.NewController(core.ControllerConfig{}, nil, sink)
		})
	}
	return eng, p, sinks
}

// TestDirectiveGuardProperty: an adversarial stream of reordered,
// duplicated, and cross-epoch directives must never move the applied
// (epoch, seq) backwards — every apply is strictly newer than the
// last, and every delivered directive is accounted as exactly one of
// applied/stale/duplicate.
func TestDirectiveGuardProperty(t *testing.T) {
	eng, p, sinks := testPlane(t, Config{}, 1)
	a := p.agents[0]
	rng := sim.NewRNG(99)

	type stamp struct{ epoch, seq uint64 }
	var appliedOrder []stamp
	prevApplies := 0

	total := 0
	// Epochs arrive out of order and interleaved; within each epoch the
	// seqs are shuffled and duplicated. The plane's own epoch is bumped
	// along the way so higher-epoch directives are plausible.
	p.epoch = 3
	for i := 0; i < 2000; i++ {
		ep := uint64(1 + rng.Intn(3))
		sq := uint64(1 + rng.Intn(40))
		rd := 1 + rng.Intn(3)
		wr := 1 + rng.Intn(8)
		// Route through deliver so the disposition ledger stays honest;
		// count the injection as sent so channel conservation holds.
		p.led.Sent++
		p.chInFlight++
		p.deliver(message{kind: msgDirective, target: 0, epoch: ep, seq: sq, read: rd, write: wr})
		total++
		if len(sinks[0].applies) > prevApplies {
			prevApplies = len(sinks[0].applies)
			appliedOrder = append(appliedOrder, stamp{a.epoch, a.lastSeq})
		}
	}

	// Drain the acks the agent emitted in response before auditing.
	eng.RunUntilIdle()

	for i := 1; i < len(appliedOrder); i++ {
		prev, cur := appliedOrder[i-1], appliedOrder[i]
		if cur.epoch < prev.epoch || (cur.epoch == prev.epoch && cur.seq <= prev.seq) {
			t.Fatalf("apply %d moved (epoch,seq) backwards: %v -> %v", i, prev, cur)
		}
	}
	led := p.led
	if led.DirectivesDelivered != uint64(total) {
		t.Fatalf("delivered %d, want %d", led.DirectivesDelivered, total)
	}
	if led.DirectivesApplied+led.StaleRejected+led.DupsAcked != uint64(total) {
		t.Fatalf("disposition leak: %d + %d + %d != %d",
			led.DirectivesApplied, led.StaleRejected, led.DupsAcked, total)
	}
	if vs := p.AuditInvariants(); len(vs) > 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
}

// TestChannelConservationUnderLoss: with heavy seeded loss and
// reordering, the channel ledger must conserve at every audit and the
// retry machinery must resolve every directive (acked or abandoned).
func TestChannelConservationUnderLoss(t *testing.T) {
	cfg := Config{
		LossProb:       0.4,
		ReorderProb:    0.5,
		BaseDelay:      10 * sim.Microsecond,
		AckTimeout:     50 * sim.Microsecond,
		HeartbeatEvery: 100 * sim.Microsecond,
	}
	eng, p, _ := testPlane(t, cfg, 2)
	stop := p.Start()
	defer stop()

	for i := 0; i < 50; i++ {
		i := i
		eng.Schedule(sim.Time(i)*20*sim.Microsecond, func() {
			p.sendDirective(i%2, 1, 1+i%8)
		})
		// Audit mid-flight, not just at drain.
		eng.Schedule(sim.Time(i)*20*sim.Microsecond+sim.Microsecond, func() {
			if vs := p.AuditInvariants(); len(vs) > 0 {
				t.Errorf("mid-run invariants violated: %v", vs)
			}
		})
	}
	eng.Run(20 * sim.Millisecond)

	led := p.LedgerSnapshot()
	if led.Dropped == 0 {
		t.Fatal("40% loss dropped nothing")
	}
	if led.Sent != led.Delivered+led.Dropped+led.InFlight {
		t.Fatalf("conservation: %d != %d + %d + %d", led.Sent, led.Delivered, led.Dropped, led.InFlight)
	}
	if p.pendingDirs != 0 {
		t.Fatalf("%d directives still pending after drain", p.pendingDirs)
	}
	if led.DirectiveRetries == 0 {
		t.Fatal("heavy loss triggered no retransmissions")
	}
}

// TestLeaseLifecycle: crash silences heartbeats; the agent walks Live
// -> Held -> Fallback (static weight applied), and a primary restart
// renews the lease and re-applies the last-known-good weight.
func TestLeaseLifecycle(t *testing.T) {
	cfg := Config{
		BaseDelay:      5 * sim.Microsecond,
		AckTimeout:     40 * sim.Microsecond,
		HeartbeatEvery: 100 * sim.Microsecond,
		LeaseTimeout:   300 * sim.Microsecond,
		GraceWindow:    300 * sim.Microsecond,
	}
	eng, p, sinks := testPlane(t, cfg, 1)
	stop := p.Start()
	defer stop()

	// A directive establishes last-known-good (2, 5).
	eng.Schedule(50*sim.Microsecond, func() { p.sinks[0].SetWeights(2, 5) })
	eng.Run(200 * sim.Microsecond)
	if sinks[0].r != 2 || sinks[0].w != 5 {
		t.Fatalf("directive not applied: %d/%d", sinks[0].r, sinks[0].w)
	}

	// Crash: no heartbeats. Lease expires at +300µs, fallback at +600µs.
	p.Crash()
	eng.Run(1500 * sim.Microsecond)
	if p.agents[0].state != leaseFallback {
		t.Fatalf("agent state %d, want fallback", p.agents[0].state)
	}
	if sinks[0].r != 1 || sinks[0].w != 1 {
		t.Fatalf("fallback weight not applied: %d/%d", sinks[0].r, sinks[0].w)
	}
	if p.led.LeaseExpiries == 0 || p.led.Fallbacks == 0 {
		t.Fatalf("ledger: expiries %d fallbacks %d", p.led.LeaseExpiries, p.led.Fallbacks)
	}

	// Restart (no standby): epoch bumps, heartbeats resume, the lease
	// renews and last-known-good is re-applied.
	p.Restart()
	eng.Run(2500 * sim.Microsecond)
	if p.agents[0].state != leaseLive {
		t.Fatalf("agent state %d after restart, want live", p.agents[0].state)
	}
	if sinks[0].r != 2 || sinks[0].w != 5 {
		t.Fatalf("last-known-good not restored: %d/%d", sinks[0].r, sinks[0].w)
	}
	if p.led.LeaseRecoveries == 0 {
		t.Fatal("no lease recovery recorded")
	}
	if p.epoch != 2 {
		t.Fatalf("epoch %d after restart, want 2", p.epoch)
	}
	if vs := p.AuditInvariants(); len(vs) > 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
}

// TestFailoverFencesPrimary: with a standby armed, a crash triggers
// takeover under a bumped epoch; directives stamped with the dead
// primary's epoch are rejected without an ack, and the restarted
// primary stays fenced.
func TestFailoverFencesPrimary(t *testing.T) {
	cfg := Config{
		BaseDelay:      5 * sim.Microsecond,
		AckTimeout:     40 * sim.Microsecond,
		HeartbeatEvery: 100 * sim.Microsecond,
		LeaseTimeout:   400 * sim.Microsecond,
		FailoverAfter:  600 * sim.Microsecond,
		Standby:        true,
	}
	eng, p, sinks := testPlane(t, cfg, 1)
	stop := p.Start()
	defer stop()

	eng.Schedule(50*sim.Microsecond, func() { p.sinks[0].SetWeights(3, 7) })
	eng.Schedule(200*sim.Microsecond, func() { p.Crash() })
	eng.Run(3 * sim.Millisecond)

	if !p.tookOver {
		t.Fatal("standby never took over")
	}
	if p.epoch != 2 || p.led.Failovers != 1 {
		t.Fatalf("epoch %d failovers %d", p.epoch, p.led.Failovers)
	}
	if len(p.Controllers(0)) != 2 {
		t.Fatalf("%d controller incarnations, want 2", len(p.Controllers(0)))
	}

	// A straggler directive from the fenced epoch 1: rejected, no sink
	// change, no ack (delivered via the channel to keep ledgers honest).
	before := sinks[0].applies
	eng.Schedule(eng.Now()+10*sim.Microsecond, func() {
		p.led.Sent++
		p.chInFlight++
		p.deliver(message{kind: msgDirective, target: 0, epoch: 1, seq: 9999, read: 9, write: 9})
	})
	eng.Run(eng.Now() + sim.Millisecond)
	if len(sinks[0].applies) != len(before) {
		t.Fatal("fenced directive reached the sink")
	}
	if p.led.StaleRejected == 0 {
		t.Fatal("fenced directive not counted stale")
	}

	// The primary restarts after the takeover: fenced, not active.
	p.Restart()
	if !p.fenced || p.epoch != 2 {
		t.Fatalf("restart after takeover: fenced=%v epoch=%d", p.fenced, p.epoch)
	}
	if vs := p.AuditInvariants(); len(vs) > 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
	steps := map[string]bool{}
	for _, st := range p.led.Epochs {
		steps[st.Reason] = true
	}
	for _, want := range []string{"boot", "crash", "failover", "restart-fenced"} {
		if !steps[want] {
			t.Fatalf("epoch ledger missing %q: %+v", want, p.led.Epochs)
		}
	}
}

// TestPlaneDeterminism: identical seed and schedule produce a
// byte-identical ledger (drops, reorder jitter, retransmissions and
// all) across independent plane instances.
func TestPlaneDeterminism(t *testing.T) {
	run := func() []byte {
		cfg := Config{
			LossProb:       0.3,
			ReorderProb:    0.5,
			BaseDelay:      10 * sim.Microsecond,
			AckTimeout:     60 * sim.Microsecond,
			HeartbeatEvery: 100 * sim.Microsecond,
		}
		eng, p, _ := testPlane(t, cfg, 2)
		stop := p.Start()
		defer stop()
		for i := 0; i < 40; i++ {
			i := i
			eng.Schedule(sim.Time(i)*30*sim.Microsecond, func() {
				p.sinks[i%2].SetWeights(1, 1+i%6)
				p.Publisher(i%2).Record(trace.Request{ID: uint64(i), Size: 4096}, eng.Now())
			})
		}
		eng.Schedule(600*sim.Microsecond, func() { p.Crash() })
		eng.Schedule(900*sim.Microsecond, func() { p.Restart() })
		eng.Run(10 * sim.Millisecond)
		b, err := json.Marshal(p.LedgerSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("ledgers diverged:\n%s\n%s", a, b)
	}
}

// TestConfigDefaults: the zero config stays disabled; negative
// MaxRetries disables retransmission; defaults chain off BaseDelay.
func TestConfigDefaults(t *testing.T) {
	var zero Config
	if zero.Enabled {
		t.Fatal("zero config enabled")
	}
	c := Config{MaxRetries: -1}.withDefaults()
	if c.MaxRetries != 0 {
		t.Fatalf("MaxRetries = %d, want 0", c.MaxRetries)
	}
	if c.BaseDelay <= 0 || c.AckTimeout <= 0 || c.LeaseTimeout <= 0 || c.GraceWindow <= 0 || c.FailoverAfter <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	if c.LeaseTimeout <= c.HeartbeatEvery {
		t.Fatal("lease must outlive a heartbeat period")
	}
}
