package nvme

import (
	"fmt"

	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// Paced is a rate-limiting arbiter: reads dispatch through a byte-rate
// token bucket while writes pass freely. It is the "direct" alternative
// to the paper's SSQ+TPM design — instead of predicting which WRR weight
// ratio yields the demanded read throughput, the demanded rate is
// applied to read dispatch directly. internal/cluster exposes it as the
// SRCDirect ablation; EXPERIMENTS.md discusses the trade-off (the paper
// argues driver-level WRR is the NVMe-native mechanism and prediction
// avoids reactive lag; Paced needs a fine-grained rate limiter in the
// dispatch path instead).
//
// Reads exceeding the bucket stay queued; the device should Kick again
// when tokens accrue — Paced schedules that wake-up itself through the
// engine and the Kicker callback.
type Paced struct {
	eng *sim.Engine

	// Kicker, if set, is invoked when queued reads become dispatchable
	// after a token refill (wire it to Device.Kick).
	Kicker func()

	readBps    float64 // current read budget, bits/s (0 = unlimited)
	tokens     float64 // bits available
	lastRefill sim.Time
	burstBits  float64

	reads, writes fifo
	wake          sim.Handle
	fireKickFn    func()

	// Counters.
	DispatchedReads, DispatchedWrites uint64
	ReadStalls                        uint64
}

// NewPaced builds a paced arbiter. burstBytes bounds the token bucket
// (default 256 KiB).
func NewPaced(eng *sim.Engine, burstBytes int) *Paced {
	if burstBytes <= 0 {
		burstBytes = 256 << 10
	}
	p := &Paced{
		eng:       eng,
		burstBits: float64(burstBytes) * 8,
	}
	p.fireKickFn = p.fireKick
	return p
}

// SetReadRate updates the read dispatch budget in bits/s (0 disables
// pacing). The SRCDirect controller calls this with the demanded data
// sending rate.
func (p *Paced) SetReadRate(bps float64) {
	p.refill()
	if bps < 0 {
		bps = 0
	}
	p.readBps = bps
	if p.tokens > p.burstBits {
		p.tokens = p.burstBits
	}
	p.scheduleWake()
}

func (p *Paced) refill() {
	now := p.eng.Now()
	if p.readBps > 0 {
		p.tokens += float64(now-p.lastRefill) / float64(sim.Second) * p.readBps
		if p.tokens > p.burstBits {
			p.tokens = p.burstBits
		}
	}
	p.lastRefill = now
}

// Submit implements Arbiter.
func (p *Paced) Submit(c *Command) {
	if c.Op == trace.Read {
		p.reads.Push(c)
	} else {
		p.writes.Push(c)
	}
}

// Fetch implements Arbiter: writes free, reads against the bucket.
func (p *Paced) Fetch() *Command {
	if !p.writes.Empty() && (p.reads.Empty() || !p.readAllowed()) {
		p.DispatchedWrites++
		return p.writes.Pop()
	}
	if p.reads.Empty() {
		if p.writes.Empty() {
			return nil
		}
		p.DispatchedWrites++
		return p.writes.Pop()
	}
	if !p.readAllowed() {
		p.ReadStalls++
		p.scheduleWake()
		return nil
	}
	head := p.reads.Pop()
	if p.readBps > 0 {
		p.tokens -= float64(head.Size) * 8
	}
	p.DispatchedReads++
	return head
}

// readAllowed refills and checks the head read against the bucket. A
// read larger than the whole bucket dispatches once the bucket is full
// (the token debt then delays subsequent reads, preserving the long-term
// rate) — without this escape hatch an oversized request would wedge the
// queue forever.
func (p *Paced) readAllowed() bool {
	if p.readBps <= 0 {
		return true
	}
	p.refill()
	head := p.reads.Peek()
	if head == nil {
		return false
	}
	return p.tokens >= float64(head.Size)*8 || p.tokens >= p.burstBits
}

// scheduleWake arms a wake-up for when the head read's tokens arrive.
func (p *Paced) scheduleWake() {
	p.eng.Cancel(p.wake)
	if p.readBps <= 0 || p.reads.Empty() || p.Kicker == nil {
		return
	}
	head := p.reads.Peek()
	need := float64(head.Size)*8 - p.tokens
	if fill := p.burstBits - p.tokens; fill < need {
		need = fill // oversized head: dispatchable at full bucket
	}
	if need <= 0 {
		// Dispatchable now; poke the device asynchronously.
		p.wake = p.eng.After(0, p.fireKickFn)
		return
	}
	delay := sim.Time(need / p.readBps * float64(sim.Second))
	if delay < 1 {
		delay = 1
	}
	p.wake = p.eng.After(delay, p.fireKickFn)
}

func (p *Paced) fireKick() {
	if p.Kicker != nil {
		p.Kicker()
	}
	// Re-arm if reads remain stalled.
	if !p.reads.Empty() && !p.readAllowed() {
		p.scheduleWake()
	}
}

// Pending implements Arbiter.
func (p *Paced) Pending() int { return p.reads.Len() + p.writes.Len() }

// PendingByOp implements Arbiter.
func (p *Paced) PendingByOp() (int, int) { return p.reads.Len(), p.writes.Len() }

// String summarises the pacing state.
func (p *Paced) String() string {
	return fmt.Sprintf("Paced(readBps=%.3g, pendingR=%d, pendingW=%d)", p.readBps, p.reads.Len(), p.writes.Len())
}
