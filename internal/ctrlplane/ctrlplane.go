// Package ctrlplane is the in-band SRC control plane: the telemetry
// reports and weight directives that internal/cluster used to hand the
// controller as direct function calls become simulated messages on a
// configurable channel with a fixed base delay, a congestion-coupled
// delay component derived from fabric load, and seeded deterministic
// loss and reordering.
//
// The plane hosts one logical controller process (a primary and an
// optional standby) for a cluster's per-target core.Controller
// instances. Each target gets a Publisher (the data-plane side that
// batches telemetry and forwards rate events) and an Agent (the
// target-resident weight applier that owns the real SSQ sink). Weight
// directives carry (epoch, seq) numbers so stale or reordered
// directives are rejected; they are acknowledged and retransmitted with
// deterministic exponential backoff up to a capped retry budget.
// Heartbeats maintain a lease at every agent: on lease expiry the agent
// holds its last-known-good weight for a grace window and then applies
// the controller's FallbackWeight (core.ControllerConfig), the weight
// the controller's own Static rung pins. The lease timer stays on the
// agent because it is the one degraded-mode decision that must be taken
// on the target side of a dead channel, where no controller can reach.
// A controller crash triggers
// failover to the standby, which re-seeds its monitor window (fresh
// controllers) and bumps the epoch, fencing directives and acks from
// the dead primary.
//
// The zero Config disables everything: cluster wiring falls back to the
// historical direct calls, so control-plane-off runs stay byte-identical
// to earlier builds.
package ctrlplane

import (
	"srcsim/internal/core"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// Config tunes the control channel and the liveness machinery. The zero
// value means "no control plane" (direct calls); every other field has
// a default filled by withDefaults.
type Config struct {
	// Enabled turns the in-band control plane on. False (the zero
	// value) keeps the historical direct-call wiring byte-for-byte.
	Enabled bool `json:"enabled,omitempty"`

	// BaseDelay is the fixed one-way message delay (default 20 µs).
	BaseDelay sim.Time `json:"base_delay_ns,omitempty"`
	// DelayPerQueuedKB couples the channel to fabric congestion: every
	// KiB of switch-queued bytes (the load probe) adds this much delay
	// (default 50 ns). Zero-load fabrics add nothing.
	DelayPerQueuedKB sim.Time `json:"delay_per_queued_kb_ns,omitempty"`
	// LossProb is the per-message drop probability (seeded,
	// deterministic). Zero consumes no randomness.
	LossProb float64 `json:"loss_prob,omitempty"`
	// ReorderProb adds a uniform extra delay in [0, ReorderJitter) to a
	// message, letting later sends overtake it.
	ReorderProb   float64  `json:"reorder_prob,omitempty"`
	ReorderJitter sim.Time `json:"reorder_jitter_ns,omitempty"`
	// Seed seeds the channel RNG (default 0xC791).
	Seed uint64 `json:"seed,omitempty"`

	// TelemetryEvery is the publisher's batch-flush period (default
	// 200 µs). Telemetry and rate events are fire-and-forget; only
	// directives are acknowledged.
	TelemetryEvery sim.Time `json:"telemetry_every_ns,omitempty"`

	// AckTimeout is the first directive retransmission delay; later
	// retries back off exponentially (AckTimeout << n) up to BackoffCap.
	// MaxRetries bounds retransmissions (default 5; -1 disables them).
	AckTimeout sim.Time `json:"ack_timeout_ns,omitempty"`
	MaxRetries int      `json:"max_retries,omitempty"`
	BackoffCap sim.Time `json:"backoff_cap_ns,omitempty"`

	// HeartbeatEvery is the controller's heartbeat period (default
	// 1 ms); LeaseTimeout is how long an agent's lease survives without
	// a heartbeat or directive (default 4x HeartbeatEvery). After lease
	// expiry the agent holds its last-known-good weight for GraceWindow
	// (default 2x LeaseTimeout) and then applies the static
	// FallbackWeight of the controller Register built.
	HeartbeatEvery sim.Time `json:"heartbeat_every_ns,omitempty"`
	LeaseTimeout   sim.Time `json:"lease_timeout_ns,omitempty"`
	GraceWindow    sim.Time `json:"grace_window_ns,omitempty"`

	// Standby arms a warm standby controller that watches the primary's
	// heartbeats and takes over — bumping the epoch and re-seeding its
	// monitor windows — when it hears nothing for FailoverAfter
	// (default 2x LeaseTimeout).
	Standby       bool     `json:"standby,omitempty"`
	FailoverAfter sim.Time `json:"failover_after_ns,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.BaseDelay <= 0 {
		c.BaseDelay = 20 * sim.Microsecond
	}
	if c.DelayPerQueuedKB < 0 {
		c.DelayPerQueuedKB = 0
	} else if c.DelayPerQueuedKB == 0 {
		c.DelayPerQueuedKB = 50 * sim.Nanosecond
	}
	if c.ReorderJitter <= 0 {
		c.ReorderJitter = 4 * c.BaseDelay
	}
	if c.Seed == 0 {
		c.Seed = 0xC791
	}
	if c.TelemetryEvery <= 0 {
		c.TelemetryEvery = 200 * sim.Microsecond
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 8 * c.BaseDelay
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 5
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 8 * c.AckTimeout
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = sim.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 4 * c.HeartbeatEvery
	}
	if c.GraceWindow <= 0 {
		c.GraceWindow = 2 * c.LeaseTimeout
	}
	if c.FailoverAfter <= 0 {
		c.FailoverAfter = 2 * c.LeaseTimeout
	}
	return c
}

// msgKind classifies channel messages.
type msgKind int

const (
	msgTelemetry msgKind = iota // publisher -> controller, batched
	msgRate                     // publisher -> controller
	msgDirective                // controller -> agent
	msgAck                      // agent -> controller
	msgHeartbeat                // controller -> agent
	msgHBStandby                // primary -> standby
)

// telemetryRec is one monitored request in a telemetry batch.
type telemetryRec struct {
	req trace.Request
	at  sim.Time
}

// message is one in-flight control-plane message.
type message struct {
	kind   msgKind
	target int // agent/publisher index; -1 for the standby link

	recs   []telemetryRec // telemetry
	demand float64        // rate
	epoch  uint64         // directive / ack / heartbeat
	seq    uint64         // directive / ack
	read   int            // directive
	write  int            // directive
}

// pending is an unacknowledged directive awaiting ack or retransmit.
type pending struct {
	epoch      uint64
	seq        uint64
	read, next int // next is the write weight (read/next mirrors SetWeights args)
	retries    int
}

// Plane is the built control plane for one cluster.
type Plane struct {
	Cfg Config

	eng  *sim.Engine
	rng  *sim.RNG
	load func() int64 // switch-queued-bytes probe; nil = unloaded

	epoch uint64 // current controller epoch (starts at 1)
	seq   uint64 // plane-wide directive sequence

	crashed  bool // primary down
	fenced   bool // primary fenced after a standby takeover
	tookOver bool // standby is the active controller
	sbLastHB sim.Time

	agents  []*agent
	pubs    []*publisher
	sinks   []*dirSink
	active  []*core.Controller
	history [][]*core.Controller
	mk      []func() *core.Controller

	pend        []map[uint64]*pending
	lastTelemAt []sim.Time

	// Per-target fault state (ctrl-drop / ctrl-delay / ctrl-partition).
	lossBoost   []float64
	delayFactor []float64
	partitioned []bool

	led             Ledger
	chInFlight      uint64
	pendingDirs     int
	appliedEpochMax uint64

	started bool
}

// New builds a plane for targets agents. load, when non-nil, reports
// total switch-queued bytes for the congestion-coupled delay component.
// Register must be called once per target before Start.
func New(eng *sim.Engine, cfg Config, targets int, load func() int64) *Plane {
	cfg = cfg.withDefaults()
	p := &Plane{
		Cfg:         cfg,
		eng:         eng,
		rng:         sim.NewRNG(cfg.Seed ^ 0xC021201A11E),
		load:        load,
		epoch:       1,
		agents:      make([]*agent, targets),
		pubs:        make([]*publisher, targets),
		sinks:       make([]*dirSink, targets),
		active:      make([]*core.Controller, targets),
		history:     make([][]*core.Controller, targets),
		mk:          make([]func() *core.Controller, targets),
		pend:        make([]map[uint64]*pending, targets),
		lastTelemAt: make([]sim.Time, targets),
		lossBoost:   make([]float64, targets),
		delayFactor: make([]float64, targets),
		partitioned: make([]bool, targets),
	}
	for t := 0; t < targets; t++ {
		p.delayFactor[t] = 1
		p.pend[t] = make(map[uint64]*pending)
		p.lastTelemAt[t] = -1
	}
	return p
}

// Targets returns the number of registered agent slots (the
// faults.CtrlPlane selector range).
func (p *Plane) Targets() int { return len(p.agents) }

// Register wires target t into the plane: real is the target's actual
// weight sink (the SSQ group the agent applies directives to), and mk
// builds one controller instance around the plane-provided directive
// sink — called once now for the primary and again on every failover or
// restart, so each incarnation re-seeds its monitor window. The agent's
// lease fallback applies the primary's Cfg.FallbackWeight. Returns the
// primary's controller.
func (p *Plane) Register(t int, real core.WeightSink, mk func(sink core.WeightSink) *core.Controller) *core.Controller {
	ds := &dirSink{p: p, t: t, lastR: 1, lastW: 1}
	p.sinks[t] = ds
	p.pubs[t] = &publisher{p: p, t: t}
	p.mk[t] = func() *core.Controller { return mk(ds) }
	ctl := p.mk[t]()
	p.agents[t] = &agent{p: p, t: t, sink: real, fallback: ctl.Cfg.FallbackWeight}
	p.active[t] = ctl
	p.history[t] = append(p.history[t], ctl)
	return ctl
}

// Publisher returns target t's data-plane telemetry publisher.
func (p *Plane) Publisher(t int) *publisher { return p.pubs[t] }

// Active returns target t's currently live controller instance, or nil
// while the controller process is down (crashed primary, no takeover
// yet).
func (p *Plane) Active(t int) *core.Controller {
	if !p.controllerUp() {
		return nil
	}
	return p.active[t]
}

// Controllers returns every controller incarnation target t has seen
// (primary first, then takeover/restart replacements), for end-of-run
// ledger collection.
func (p *Plane) Controllers(t int) []*core.Controller { return p.history[t] }

// controllerUp reports whether a controller process is serving: the
// primary (not crashed, not fenced) or the standby after takeover.
func (p *Plane) controllerUp() bool {
	if p.tookOver {
		return true
	}
	return !p.crashed && !p.fenced
}

// Start schedules the plane's tickers (telemetry flush, heartbeats,
// lease checks, the standby watchdog) and records the boot epoch. It
// returns a stop function detaching everything.
func (p *Plane) Start() (stop func()) {
	now := p.eng.Now()
	p.started = true
	p.epochStep(now, "boot")
	for _, a := range p.agents {
		a.lastSeen = now
	}
	p.sbLastHB = now

	var stops []func()
	for _, pb := range p.pubs {
		pb := pb
		stops = append(stops, p.eng.Ticker(p.Cfg.TelemetryEvery, pb.flush))
	}
	stops = append(stops, p.eng.Ticker(p.Cfg.HeartbeatEvery, p.heartbeat))
	leaseEvery := p.Cfg.LeaseTimeout / 4
	if leaseEvery < 10*sim.Microsecond {
		leaseEvery = 10 * sim.Microsecond
	}
	for _, a := range p.agents {
		a := a
		stops = append(stops, p.eng.Ticker(leaseEvery, a.checkLease))
	}
	if p.Cfg.Standby {
		stops = append(stops, p.eng.Ticker(p.Cfg.HeartbeatEvery, p.standbyWatch))
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// delay computes one message's channel delay: the per-target base delay
// (scaled by any ctrl-delay fault), the congestion-coupled component,
// and — with ReorderProb armed — an occasional extra jitter that lets
// later sends overtake this message.
func (p *Plane) delay(target int) sim.Time {
	d := p.Cfg.BaseDelay
	if target >= 0 {
		d = sim.Time(float64(d) * p.delayFactor[target])
	}
	if p.load != nil && p.Cfg.DelayPerQueuedKB > 0 {
		if q := p.load(); q > 0 {
			d += p.Cfg.DelayPerQueuedKB * sim.Time(q>>10)
		}
	}
	if p.Cfg.ReorderProb > 0 && p.rng.Float64() < p.Cfg.ReorderProb {
		d += sim.Time(p.rng.Float64() * float64(p.Cfg.ReorderJitter))
	}
	return d
}

// send puts one message on the channel: accounting, the partition gate,
// the seeded loss draw, then a delayed delivery event. Every send
// attempt (including retransmissions) counts toward Sent, so the
// channel-conservation audit (sent == delivered + dropped + in-flight)
// holds at any instant.
func (p *Plane) send(m message) {
	p.led.Sent++
	if m.target >= 0 && p.partitioned[m.target] {
		p.drop(m)
		return
	}
	lp := p.Cfg.LossProb
	if m.target >= 0 {
		lp += p.lossBoost[m.target]
	}
	if lp > 0 {
		if lp > 1 {
			lp = 1
		}
		if p.rng.Float64() < lp {
			p.drop(m)
			return
		}
	}
	p.chInFlight++
	p.eng.After(p.delay(m.target), func() { p.deliver(m) })
}

// drop accounts one lost message.
func (p *Plane) drop(m message) {
	p.led.Dropped++
	if m.kind == msgTelemetry {
		p.led.TelemetryDropped++
	}
}

// deliver dispatches one message at its delayed arrival time. Messages
// bound for a dead controller are destination-down drops: the process
// they address no longer exists.
func (p *Plane) deliver(m message) {
	p.chInFlight--
	now := p.eng.Now()
	switch m.kind {
	case msgTelemetry, msgRate, msgAck:
		if !p.controllerUp() {
			p.drop(m)
			return
		}
		p.led.Delivered++
		switch m.kind {
		case msgTelemetry:
			p.deliverTelemetry(m)
		case msgRate:
			p.active[m.target].OnRateEvent(now, m.demand)
		default:
			p.deliverAck(m)
		}
	case msgDirective:
		p.led.Delivered++
		p.led.DirectivesDelivered++
		p.agents[m.target].onDirective(now, m.epoch, m.seq, m.read, m.write)
	case msgHeartbeat:
		p.led.Delivered++
		p.agents[m.target].onHeartbeat(now, m.epoch)
	case msgHBStandby:
		p.led.Delivered++
		p.sbLastHB = now
	}
}

// deliverTelemetry replays a batch into the active controller's
// monitor, preserving the original observation timestamps so staleness
// ages naturally with channel delay. Records older than ones already
// delivered for this target are discarded: the monitor window assumes
// in-order arrivals, and a reordered stale batch describes traffic a
// fresher batch has already superseded.
func (p *Plane) deliverTelemetry(m message) {
	ctl := p.active[m.target]
	for _, r := range m.recs {
		if r.at < p.lastTelemAt[m.target] {
			p.led.TelemetryReorderedDropped++
			continue
		}
		p.lastTelemAt[m.target] = r.at
		ctl.Monitor.Record(r.req, r.at)
	}
}

// deliverAck resolves a pending directive. Acks for directives from a
// fenced epoch (or unknown seq — already acked or abandoned) are
// ignored; re-acked duplicates land here too and find nothing pending.
func (p *Plane) deliverAck(m message) {
	pd := p.pend[m.target][m.seq]
	if pd == nil || pd.epoch != m.epoch {
		return
	}
	delete(p.pend[m.target], m.seq)
	p.pendingDirs--
}

// sendDirective emits one epoch/seq-stamped weight directive from the
// active controller to target t's agent and arms its retransmit timer.
func (p *Plane) sendDirective(t, read, write int) {
	p.seq++
	pd := &pending{epoch: p.epoch, seq: p.seq, read: read, next: write}
	p.pend[t][pd.seq] = pd
	p.pendingDirs++
	p.led.DirectivesSent++
	p.send(message{kind: msgDirective, target: t, epoch: pd.epoch, seq: pd.seq, read: read, write: write})
	p.armRetransmit(t, pd, p.Cfg.AckTimeout)
}

// armRetransmit schedules the next retransmission check for pd.
func (p *Plane) armRetransmit(t int, pd *pending, wait sim.Time) {
	p.eng.After(wait, func() { p.retransmit(t, pd) })
}

// retransmit re-sends an unacknowledged directive with exponential
// backoff, abandoning it when the sender's epoch has been fenced, the
// controller is down, or the retry budget is spent.
func (p *Plane) retransmit(t int, pd *pending) {
	if p.pend[t][pd.seq] != pd {
		return // acked (or already abandoned) meanwhile
	}
	if pd.epoch != p.epoch || !p.controllerUp() || pd.retries >= p.Cfg.MaxRetries {
		delete(p.pend[t], pd.seq)
		p.pendingDirs--
		p.led.DirectivesAbandoned++
		return
	}
	pd.retries++
	p.led.DirectiveRetries++
	p.send(message{kind: msgDirective, target: t, epoch: pd.epoch, seq: pd.seq, read: pd.read, write: pd.next})
	wait := p.Cfg.AckTimeout << uint(pd.retries)
	if wait > p.Cfg.BackoffCap {
		wait = p.Cfg.BackoffCap
	}
	p.armRetransmit(t, pd, wait)
}

// heartbeat is the active controller's liveness beacon: one message per
// agent, plus one to the standby while the primary still runs.
func (p *Plane) heartbeat() {
	if !p.controllerUp() {
		return
	}
	for t := range p.agents {
		p.send(message{kind: msgHeartbeat, target: t, epoch: p.epoch})
	}
	if p.Cfg.Standby && !p.tookOver {
		p.send(message{kind: msgHBStandby, target: -1})
	}
}

// standbyWatch is the standby's failover watchdog: when the primary's
// heartbeats have been silent for FailoverAfter, take over — bump the
// epoch (fencing every directive and ack still in flight from the dead
// primary), rebuild each target's controller so the monitor window
// re-seeds from live telemetry only, and start heartbeating as the new
// active controller.
func (p *Plane) standbyWatch() {
	if p.tookOver {
		return
	}
	now := p.eng.Now()
	if now-p.sbLastHB <= p.Cfg.FailoverAfter {
		return
	}
	p.tookOver = true
	if p.crashed {
		p.fenced = true // a later primary restart must stay fenced
	}
	p.epoch++
	p.led.Failovers++
	p.epochStep(now, "failover")
	p.rebuildControllers()
	p.heartbeat() // announce the new epoch promptly
}

// Crash kills the primary controller process (the controller-crash
// fault). In-flight messages to it become destination-down drops;
// pending directive retransmissions abandon on their next timer. After
// a takeover the standby is the controller, so a crash of the
// already-dead primary changes nothing.
func (p *Plane) Crash() {
	if p.crashed {
		return
	}
	p.crashed = true
	p.led.Crashes++
	p.epochStep(p.eng.Now(), "crash")
}

// Restart revives the primary. If the standby took over meanwhile the
// primary comes back fenced — its epoch is dead, and the epoch guard at
// every agent rejects anything it might still emit. Otherwise it
// resumes as the active controller under a bumped epoch with re-seeded
// monitor windows (its pre-crash feature state described traffic it
// never saw complete).
func (p *Plane) Restart() {
	if !p.crashed {
		return
	}
	p.crashed = false
	now := p.eng.Now()
	if p.tookOver {
		p.fenced = true
		p.epochStep(now, "restart-fenced")
		return
	}
	p.epoch++
	p.epochStep(now, "restart")
	p.rebuildControllers()
}

// rebuildControllers replaces every target's active controller with a
// fresh incarnation (empty monitor window, clean adaptive state).
func (p *Plane) rebuildControllers() {
	for t := range p.active {
		if p.mk[t] == nil {
			continue
		}
		ctl := p.mk[t]()
		p.active[t] = ctl
		p.history[t] = append(p.history[t], ctl)
	}
}

// SetLoss applies a ctrl-drop fault: an additional message-loss
// probability on target t's control channel (composes with the
// configured base LossProb).
func (p *Plane) SetLoss(t int, prob float64) { p.lossBoost[t] = prob }

// SetDelayFactor applies a ctrl-delay fault: multiplies the base delay
// of target t's control channel.
func (p *Plane) SetDelayFactor(t int, f float64) { p.delayFactor[t] = f }

// SetPartition applies a ctrl-partition fault: cuts target t's control
// channel in both directions.
func (p *Plane) SetPartition(t int, on bool) { p.partitioned[t] = on }
