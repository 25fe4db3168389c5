package ctrlplane

import (
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// Lease states of an agent, in degradation order.
const (
	leaseLive = iota
	// leaseHeld: the lease expired; the agent holds its last-known-good
	// weight for the grace window.
	leaseHeld
	// leaseFallback: the grace window also passed; the controller's
	// static FallbackWeight is applied until it is heard from again.
	leaseFallback
)

// agent is the target-resident weight applier: it owns the target's
// real weight sink, enforces the (epoch, seq) guard on incoming
// directives, acknowledges them, and runs the lease state machine.
type agent struct {
	p    *Plane
	t    int
	sink interface {
		SetWeights(read, write int)
	}
	fallback int // the controller's FallbackWeight

	epoch   uint64 // highest epoch adopted
	lastSeq uint64 // highest seq applied within epoch

	lastGoodR, lastGoodW int
	haveGood             bool

	lastSeen sim.Time // last heartbeat or directive delivery
	state    int
}

// onDirective enforces the epoch/seq guard and applies the weights.
//
//   - epoch below the adopted one: the sender is fenced (a dead
//     primary); reject without acking so its retries die on the retry
//     budget, never on our cooperation.
//   - same epoch, seq not above the last applied: a duplicate (a
//     retransmission whose original landed, or a reordered copy). The
//     weights are already in place; re-ack so the sender stops
//     retransmitting, but do not touch the sink — applying it would
//     move weights backwards.
//   - otherwise: adopt and apply.
func (a *agent) onDirective(now sim.Time, epoch, seq uint64, read, write int) {
	switch {
	case epoch < a.epoch:
		a.p.led.StaleRejected++
		return
	case epoch == a.epoch && seq <= a.lastSeq:
		a.p.led.DupsAcked++
		a.renewLease(now)
		a.ack(epoch, seq)
		return
	}
	if epoch > a.epoch {
		a.epoch = epoch
	}
	a.lastSeq = seq
	a.sink.SetWeights(read, write)
	a.lastGoodR, a.lastGoodW = read, write
	a.haveGood = true
	a.p.led.DirectivesApplied++
	a.renewLease(now)
	a.ack(epoch, seq)
	a.p.noteApplied(now, epoch)
}

// onHeartbeat renews the lease; heartbeats from a fenced epoch are
// ignored entirely (a dead primary must not keep leases alive).
func (a *agent) onHeartbeat(now sim.Time, epoch uint64) {
	if epoch < a.epoch {
		a.p.led.StaleHeartbeats++
		return
	}
	if epoch > a.epoch {
		a.epoch = epoch
	}
	a.renewLease(now)
}

// renewLease marks the controller live; recovering from the fallback
// state re-applies the last-known-good weight (the fallback clobbered
// it, and the controller will take a while to issue a fresh directive).
func (a *agent) renewLease(now sim.Time) {
	a.lastSeen = now
	if a.state == leaseFallback && a.haveGood {
		a.sink.SetWeights(a.lastGoodR, a.lastGoodW)
		a.p.led.LeaseRecoveries++
	}
	a.state = leaseLive
}

// checkLease is the agent's periodic liveness check: Live -> Held at
// LeaseTimeout, Held -> Fallback (static weight) after GraceWindow
// more.
func (a *agent) checkLease() {
	age := a.p.eng.Now() - a.lastSeen
	switch a.state {
	case leaseLive:
		if age > a.p.Cfg.LeaseTimeout {
			a.state = leaseHeld
			a.p.led.LeaseExpiries++
		}
	case leaseHeld:
		if age > a.p.Cfg.LeaseTimeout+a.p.Cfg.GraceWindow {
			a.state = leaseFallback
			a.sink.SetWeights(1, a.fallback)
			a.p.led.Fallbacks++
		}
	}
}

// ack sends the acknowledgement for one (epoch, seq) back to the
// controller over the same lossy channel.
func (a *agent) ack(epoch, seq uint64) {
	a.p.send(message{kind: msgAck, target: a.t, epoch: epoch, seq: seq})
}

// leaseAge returns the time since the agent last heard the controller.
func (a *agent) leaseAge(now sim.Time) sim.Time { return now - a.lastSeen }

// publisher is the data-plane side of one target's telemetry feed: it
// buffers monitored requests and flushes them as one batched message
// per TelemetryEvery, and forwards demanded-rate events immediately.
// Both are fire-and-forget — telemetry is dense enough that loss is
// absorbed by the monitor window, unlike directives.
type publisher struct {
	p   *Plane
	t   int
	buf []telemetryRec
}

// Record buffers one monitored request (the in-band replacement for the
// direct Monitor.Record call).
func (pb *publisher) Record(req trace.Request, at sim.Time) {
	pb.buf = append(pb.buf, telemetryRec{req: req, at: at})
}

// RateEvent forwards one demanded-rate notification (the in-band
// replacement for the direct OnRateEvent call).
func (pb *publisher) RateEvent(demand float64) {
	p := pb.p
	p.led.RateEvents++
	p.send(message{kind: msgRate, target: pb.t, demand: demand})
}

// flush ships the buffered batch.
func (pb *publisher) flush() {
	if len(pb.buf) == 0 {
		return
	}
	recs := pb.buf
	pb.buf = nil
	pb.p.led.TelemetryBatches++
	pb.p.send(message{kind: msgTelemetry, target: pb.t, recs: recs})
}

// dirSink is the core.WeightSink handed to every controller
// incarnation: SetWeights becomes an epoch/seq-stamped directive on the
// channel instead of a direct call, and WeightRatio answers with the
// last ratio the controller commanded (its own view — the agent's
// actual weights may lag or diverge under loss, which is the point).
type dirSink struct {
	p            *Plane
	t            int
	lastR, lastW int
}

// SetWeights implements core.WeightSink by emitting a directive.
func (s *dirSink) SetWeights(read, write int) {
	s.lastR, s.lastW = read, write
	s.p.sendDirective(s.t, read, write)
}

// WeightRatio implements core.WeightSink (write/read, matching
// nvme.SSQ.WeightRatio).
func (s *dirSink) WeightRatio() float64 {
	return float64(s.lastW) / float64(s.lastR)
}
