// Package nvmeof binds the network simulator to the SSD simulator as
// NVMe-over-RDMA: Initiators submit NVMe commands over fabric flows to
// Targets, Targets feed their device through an nvme.Arbiter and return
// read data (inbound flows) or write acknowledgements, mirroring Fig. 1
// of the paper.
//
// Flow layout per (initiator, target) pair — separate queue pairs keep
// small capsules from head-of-line blocking behind bulk data, as in real
// NVMe-oF:
//
//	initiator → target:  command flow (read capsules),
//	                     write flow   (write capsules + payload)
//	target → initiator:  data flow    (read payload)  ← DCQCN throttles this
//	                     ack flow     (write completions)
//
// The data flow's DCQCN reaction point is the paper's congestion-signal
// source: SRC subscribes to its rate changes via Target.OnReadRate.
package nvmeof

import (
	"fmt"

	"srcsim/internal/netsim"
	"srcsim/internal/nvme"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/trace"
)

// CommandSize is the wire size of an NVMe-oF capsule (bytes).
const CommandSize = 64

// capsule is the payload riding a command to the target and back: the
// request on the outbound leg, mutated in place into the response on the
// return leg. One capsule makes the whole round trip and is recycled at
// the owning initiator, so the steady-state command path allocates
// nothing per I/O. Payloads travel as *capsule — a pointer in an
// interface — which also avoids the boxing allocation the old value
// payloads paid on every Send.
type capsule struct {
	Req  trace.Request
	From netsim.NodeID

	// Response leg.
	ReadData bool

	// TXQ credit attached to a read response (t nil = none). acked
	// collapses the RDMA-level delivery acknowledgement and the leak-
	// recovery timer into exactly one credit return.
	t      *Target
	credit int64
	acked  bool
	// timerArmed marks a capsule referenced by a pending credit-recovery
	// timer: it must not be recycled (the timer callback would alias a
	// reused capsule), so it is left to the garbage collector instead.
	timerArmed bool

	pool *capsulePool
}

// ackCredit returns the capsule's TXQ credit to its target, once.
func (c *capsule) ackCredit() {
	if c.t == nil || c.acked {
		return
	}
	c.acked = true
	c.t.returnCredit(c.credit)
}

// capsuleCreditExpire is the credit-leak recovery timer continuation: if
// the read data carrying this capsule was lost on the wire, the delivery
// ack never fires and this returns the credit instead.
func capsuleCreditExpire(x any) { x.(*capsule).ackCredit() }

// capsulePool recycles capsules per initiator; gated by
// sim.PoolingEnabled at construction.
type capsulePool struct {
	free []*capsule
	on   bool
}

func (p *capsulePool) get() *capsule {
	if k := len(p.free); k > 0 {
		c := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		return c
	}
	return &capsule{pool: p}
}

// put recycles a capsule that reached the end of its round trip. Capsules
// with an armed recovery timer are skipped (see timerArmed).
func (p *capsulePool) put(c *capsule) {
	if c.timerArmed {
		return
	}
	*c = capsule{pool: p}
	if p.on {
		p.free = append(p.free, c)
	}
}

// RetryPolicy configures per-command expiry and retransmission at an
// initiator (the NVMe-oF command timeout). The zero value disables
// timeouts entirely — the pre-fault behaviour where commands wait
// forever — so existing setups are unchanged.
type RetryPolicy struct {
	// Timeout is the per-attempt expiry, measured from each
	// (re)submission. Zero or negative disables the whole policy.
	Timeout sim.Time
	// MaxRetries bounds retransmissions per command (default 3); a
	// command failing its last retry is abandoned and reported via
	// Initiator.OnFailed.
	MaxRetries int
	// BackoffBase is the delay before the first retransmission; attempt
	// k waits min(BackoffBase << (k-1), BackoffCap). Defaults: Timeout/4
	// and 8×BackoffBase.
	BackoffBase sim.Time
	BackoffCap  sim.Time
}

// Enabled reports whether the policy arms expiry timers.
func (p RetryPolicy) Enabled() bool { return p.Timeout > 0 }

// WithDefaults fills unset fields of an enabled policy; a disabled
// policy stays the zero value.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if !p.Enabled() {
		return RetryPolicy{}
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = p.Timeout / 4
		if p.BackoffBase <= 0 {
			p.BackoffBase = 1
		}
	}
	if p.BackoffCap < p.BackoffBase {
		p.BackoffCap = 8 * p.BackoffBase
	}
	return p
}

// backoff returns the delay before retransmission attempt k (k >= 1).
func (p RetryPolicy) backoff(attempt int) sim.Time {
	d := p.BackoffBase
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d >= p.BackoffCap || d <= 0 {
			return p.BackoffCap
		}
	}
	if d > p.BackoffCap {
		return p.BackoffCap
	}
	return d
}

// Unit is one SSD instance of a target's flash array: a device plus the
// arbiter feeding it (the baseline MultiRR or the paper's SSQ).
type Unit struct {
	Dev *ssd.Device
	Arb nvme.Arbiter
}

// Target is a storage node: a host NIC plus a flash array of one or more
// SSD instances (the paper launches multiple MQSim instances per target).
// Requests are striped across units by LBA so same-address requests
// always meet the same device.
type Target struct {
	Node  *netsim.Node
	Units []Unit

	// OnReadRate, if set, observes DCQCN rate changes (bits/s) on any of
	// this target's read-data flows — the pause/retrieval events SRC
	// consumes. The flow whose rate changed is passed along.
	OnReadRate func(flow *netsim.Flow, oldBps, newBps float64)

	// OnCommandArrive, if set, sees every command as it is submitted to
	// the arbiter (the SRC workload monitor hooks this).
	OnCommandArrive func(req trace.Request, at sim.Time)

	// OnWriteComplete, if set, fires when the device finishes a write
	// (the paper measures write throughput at targets).
	OnWriteComplete func(req trace.Request, at sim.Time)

	net       *netsim.Network
	dataFlows map[netsim.NodeID]*netsim.Flow
	ackFlows  map[netsim.NodeID]*netsim.Flow

	// TXQ credit accounting (see TXQCap): read data handed to the fabric
	// consumes credit; delivery returns it. When credit runs out, device
	// completions park in the shared CQ and the devices stall — the
	// paper's Sec. II-B degradation mechanism.
	txqCap    int64
	txqCredit int64
	// txqCreditLow is the credit low-water mark: how close the target
	// came to (or how deeply it sat at) TXQ exhaustion.
	txqCreditLow int64
	// creditHeld mirrors credit currently held by in-flight read data, so
	// the auditor can verify exact conservation: txqCredit + creditHeld
	// == txqCap at every instant (see AuditInvariants).
	creditHeld int64
	// OversizeAdmits counts reads larger than the whole TXQ cap admitted
	// via the anti-wedge clause; they legitimately drive credit negative.
	OversizeAdmits uint64

	// inflight tracks commands between arrival and device completion so
	// retransmitted duplicates (the initiator timed out but the original
	// is still being served) are dropped instead of executed twice.
	inflight map[dedupKey]struct{}

	// cmdFree recycles nvme.Commands: a command is dead once the device's
	// OnComplete fires (arbiters drop their references at Fetch), so the
	// steady-state submission path reuses it. Gated by sim.PoolingEnabled
	// at construction.
	cmdFree []*nvme.Command
	poolOn  bool

	// creditTimeout, when positive, bounds how long delivered-but-lost
	// read data may hold TXQ credit: if the initiator-side ack never
	// arrives (the data was dropped on the wire), the credit is returned
	// after this delay instead of leaking forever and wedging the
	// devices. Zero (the default) keeps the pre-fault wait-forever
	// behaviour.
	creditTimeout sim.Time

	// Counters.
	ReadsServed, WritesServed uint64
	// DupsDropped counts retransmitted commands discarded because the
	// original was still in flight at this target.
	DupsDropped uint64
}

// dedupKey identifies a command uniquely across initiators: request IDs
// are per-trace, so the same ID may arrive from different hosts.
type dedupKey struct {
	from netsim.NodeID
	id   uint64
}

// DefaultTXQCap bounds in-flight read data per target (bytes).
const DefaultTXQCap = 1 << 20

// unitStripe is the LBA striping granularity across array units.
const unitStripe = 1 << 20

// NewTarget wires a target over the given flash-array units: incoming
// capsules are submitted to the owning unit's arbiter, and device
// completions are returned over the fabric. NewTarget takes over each
// device's OnComplete callback and completion Gate; use the Target hooks
// for instrumentation. txqCap bounds in-flight read data (bytes; 0 uses
// DefaultTXQCap, negative disables the backpressure model).
func NewTarget(net *netsim.Network, node *netsim.Node, units []Unit, txqCap int64) *Target {
	if len(units) == 0 {
		panic("nvmeof: target needs at least one unit")
	}
	if txqCap == 0 {
		txqCap = DefaultTXQCap
	}
	t := &Target{
		Node: node, Units: units, net: net,
		dataFlows: make(map[netsim.NodeID]*netsim.Flow),
		ackFlows:  make(map[netsim.NodeID]*netsim.Flow),
		txqCap:    txqCap, txqCredit: txqCap, txqCreditLow: txqCap,
		inflight: make(map[dedupKey]struct{}),
		poolOn:   sim.PoolingEnabled(),
	}
	node.NIC.OnMessage = t.onMessage
	for _, u := range units {
		u.Dev.OnComplete = t.onDeviceComplete
		if txqCap > 0 {
			u.Dev.Gate = (*txqGate)(t)
		}
	}
	return t
}

// txqGate implements ssd.Gate over the target's TXQ credit: reads need
// credit for their payload; writes pass freely (their completions are
// tiny) but still honour CQ FIFO order via the device's parked queue.
type txqGate Target

// Admit implements ssd.Gate.
func (g *txqGate) Admit(c *nvme.Command) bool {
	t := (*Target)(g)
	if c.Op != trace.Read {
		return true
	}
	need := int64(c.Size)
	if t.txqCredit >= need || t.txqCredit == t.txqCap {
		// The second clause prevents a request larger than the whole
		// cap from wedging the pipeline.
		if t.txqCredit < need {
			t.OversizeAdmits++
		}
		t.txqCredit -= need
		t.creditHeld += need
		if t.txqCredit < t.txqCreditLow {
			t.txqCreditLow = t.txqCredit
		}
		return true
	}
	return false
}

// returnCredit releases TXQ credit and unblocks parked completions.
func (t *Target) returnCredit(n int64) {
	t.creditHeld -= n
	t.txqCredit += n
	if t.txqCredit > t.txqCap {
		t.txqCredit = t.txqCap
	}
	for _, u := range t.Units {
		u.Dev.ReleaseParked()
	}
}

// SetCreditTimeout arms (or, with zero, disarms) the TXQ credit-leak
// recovery timer; see the creditTimeout field.
func (t *Target) SetCreditTimeout(d sim.Time) { t.creditTimeout = d }

// TXQCredit returns the remaining in-flight read-data budget.
func (t *Target) TXQCredit() int64 { return t.txqCredit }

// Instrument registers the target's state with a metrics registry:
// served/duplicate counters, the TXQ credit low-water mark and end-of-run
// backlog (the paper's Sec. II-B degradation site), and, recorder-only,
// the live credit, in-flight command count and aggregate read-data
// sending rate. Targets sharing labels sum. Nil reg is a no-op.
func (t *Target) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc("nvmeof", "reads_served", obs.U64(&t.ReadsServed), labels...)
	reg.CounterFunc("nvmeof", "writes_served", obs.U64(&t.WritesServed), labels...)
	reg.CounterFunc("nvmeof", "dups_dropped", obs.U64(&t.DupsDropped), labels...)
	reg.GaugeFunc("nvmeof", "txq_credit_low_bytes", obs.Min, func() float64 { return float64(t.txqCreditLow) }, labels...)
	reg.GaugeFunc("nvmeof", "txq_backlog_end_bytes", obs.Max, func() float64 { return float64(t.TXQBacklog()) }, labels...)
	reg.GaugeFunc("nvmeof", "txq_credit_bytes", obs.Probe, func() float64 { return float64(t.txqCredit) }, labels...)
	reg.GaugeFunc("nvmeof", "inflight_cmds", obs.Probe, func() float64 { return float64(len(t.inflight)) }, labels...)
	reg.GaugeFunc("nvmeof", "read_send_gbps", obs.Probe, func() float64 { return t.ReadSendRate() / 1e9 }, labels...)
}

// unitOf routes an LBA to its array unit.
func (t *Target) unitOf(lba uint64) Unit {
	return t.Units[(lba/unitStripe)%uint64(len(t.Units))]
}

func (t *Target) eng() *sim.Engine { return t.Units[0].Dev.Engine() }

func (t *Target) allocCmd() *nvme.Command {
	if k := len(t.cmdFree); k > 0 {
		cmd := t.cmdFree[k-1]
		t.cmdFree[k-1] = nil
		t.cmdFree = t.cmdFree[:k-1]
		return cmd
	}
	return &nvme.Command{}
}

func (t *Target) freeCmd(cmd *nvme.Command) {
	*cmd = nvme.Command{}
	if t.poolOn {
		t.cmdFree = append(t.cmdFree, cmd)
	}
}

func (t *Target) onMessage(_ *netsim.Flow, _ uint64, _ int, payload any) {
	c, ok := payload.(*capsule)
	if !ok {
		panic(fmt.Sprintf("nvmeof: target %s received unexpected payload %T", t.Node.Name, payload))
	}
	key := dedupKey{from: c.From, id: c.Req.ID}
	if _, dup := t.inflight[key]; dup {
		t.DupsDropped++
		c.pool.put(c)
		return
	}
	t.inflight[key] = struct{}{}
	now := t.eng().Now()
	if t.OnCommandArrive != nil {
		t.OnCommandArrive(c.Req, now)
	}
	u := t.unitOf(c.Req.LBA)
	cmd := t.allocCmd()
	cmd.ID = c.Req.ID
	cmd.Op = c.Req.Op
	cmd.LBA = c.Req.LBA
	cmd.Size = c.Req.Size
	cmd.Submitted = now
	cmd.UserData = c
	u.Arb.Submit(cmd)
	u.Dev.Kick()
}

func (t *Target) onDeviceComplete(cmd *nvme.Command) {
	c := cmd.UserData.(*capsule)
	now := t.eng().Now()
	delete(t.inflight, dedupKey{from: c.From, id: c.Req.ID})
	op, size := cmd.Op, cmd.Size
	t.freeCmd(cmd)
	if op == trace.Read {
		t.ReadsServed++
		data := t.flowTo(t.dataFlows, c.From, true)
		c.ReadData = true
		if t.txqCap > 0 {
			c.t = t
			c.credit = int64(size)
			if t.creditTimeout > 0 {
				// Leak recovery: if the data message is lost on the wire,
				// the initiator-side ack never fires; without this timer
				// the credit is gone for good and the devices wedge.
				c.timerArmed = true
				t.eng().AfterArg(t.creditTimeout, capsuleCreditExpire, c)
			}
		}
		data.Send(size+CommandSize, c)
		return
	}
	t.WritesServed++
	if t.OnWriteComplete != nil {
		t.OnWriteComplete(c.Req, now)
	}
	ack := t.flowTo(t.ackFlows, c.From, false)
	c.ReadData = false
	ack.Send(CommandSize, c)
}

// flowTo lazily creates the per-initiator return flow, attaching the
// DCQCN rate listener to data flows.
func (t *Target) flowTo(m map[netsim.NodeID]*netsim.Flow, dst netsim.NodeID, isData bool) *netsim.Flow {
	if f, ok := m[dst]; ok {
		return f
	}
	f := t.net.NewFlow(t.Node, t.net.Node(dst))
	m[dst] = f
	if isData {
		f.RP.SetRateListener(func(old, new float64) {
			if t.OnReadRate != nil {
				t.OnReadRate(f, old, new)
			}
		})
	}
	return f
}

// DataFlows returns the read-data flows created so far.
func (t *Target) DataFlows() []*netsim.Flow {
	out := make([]*netsim.Flow, 0, len(t.dataFlows))
	for _, f := range t.dataFlows {
		out = append(out, f)
	}
	return out
}

// ReadSendRate returns the sum of DCQCN rates (bits/s) across the
// target's read-data flows: the fabric's current demanded data sending
// rate for this target.
func (t *Target) ReadSendRate() float64 {
	var sum float64
	for _, f := range t.dataFlows {
		sum += f.RP.Rate()
	}
	return sum
}

// TXQBacklog returns bytes of read data held back by congestion control
// (flow queues plus the port queue) — the wasted SSD work under
// DCQCN-only.
func (t *Target) TXQBacklog() int64 {
	var total int64
	for _, f := range t.dataFlows {
		total += f.Backlog()
	}
	return total + t.Node.NIC.TXQBytes()
}

// Initiator is a compute node submitting I/O to targets.
type Initiator struct {
	Node *netsim.Node

	// OnComplete fires when a request finishes (read data fully
	// received, or write ack received).
	OnComplete func(req trace.Request, readData bool, at sim.Time)

	// OnFailed fires when a request exhausts its retry budget and is
	// abandoned (only with a retry policy set). A request reports
	// exactly one of OnComplete or OnFailed.
	OnFailed func(req trace.Request, at sim.Time)

	net        *netsim.Network
	eng        *sim.Engine
	cmdFlows   map[netsim.NodeID]*netsim.Flow
	writeFlows map[netsim.NodeID]*netsim.Flow

	retry   RetryPolicy
	pending map[uint64]*pendingOp
	caps    capsulePool

	// Counters.
	ReadBytesReceived int64
	ReadsCompleted    uint64
	WritesCompleted   uint64
	Submitted         uint64
	// Retries counts retransmissions, Timeouts expiry-timer firings
	// (every retry implies a timeout, but the final timeout of a failed
	// op does not retry), FailedOps abandoned requests, and
	// StaleResponses completions that arrived after their command had
	// already completed (a retransmit duplicate) or failed.
	Retries        uint64
	Timeouts       uint64
	FailedOps      uint64
	StaleResponses uint64
}

// pendingOp is an in-flight command awaiting completion under a retry
// policy.
type pendingOp struct {
	ini     *Initiator
	req     trace.Request
	target  *netsim.Node
	attempt int
	timer   sim.Handle
}

// NewInitiator wires an initiator on the given host node.
func NewInitiator(net *netsim.Network, eng *sim.Engine, node *netsim.Node) *Initiator {
	ini := &Initiator{
		Node: node, net: net, eng: eng,
		cmdFlows:   make(map[netsim.NodeID]*netsim.Flow),
		writeFlows: make(map[netsim.NodeID]*netsim.Flow),
	}
	ini.caps.on = sim.PoolingEnabled()
	node.NIC.OnMessage = ini.onMessage
	return ini
}

// SetRetryPolicy installs a per-command timeout/retry policy (defaults
// applied). Must be set before the first Submit; the zero policy leaves
// timeouts disabled.
func (ini *Initiator) SetRetryPolicy(p RetryPolicy) {
	ini.retry = p.WithDefaults()
	if ini.retry.Enabled() && ini.pending == nil {
		ini.pending = make(map[uint64]*pendingOp)
	}
}

// Submit sends one request to the target node. Reads travel as small
// capsules; writes carry their payload.
func (ini *Initiator) Submit(req trace.Request, target *netsim.Node) {
	ini.Submitted++
	if ini.retry.Enabled() {
		op := &pendingOp{ini: ini, req: req, target: target}
		ini.pending[req.ID] = op
		ini.armTimer(op)
	}
	ini.send(req, target)
}

func (ini *Initiator) send(req trace.Request, target *netsim.Node) {
	c := ini.caps.get()
	c.Req = req
	c.From = ini.Node.ID
	if req.Op == trace.Read {
		ini.flowTo(ini.cmdFlows, target.ID).Send(CommandSize, c)
		return
	}
	ini.flowTo(ini.writeFlows, target.ID).Send(CommandSize+req.Size, c)
}

func (ini *Initiator) armTimer(op *pendingOp) {
	op.timer = ini.eng.AfterArg(ini.retry.Timeout, pendingExpire, op)
}

func pendingExpire(x any) {
	op := x.(*pendingOp)
	op.ini.expire(op)
}

// pendingResend retransmits a timed-out command once its backoff elapses.
func pendingResend(x any) {
	op := x.(*pendingOp)
	ini := op.ini
	if ini.pending[op.req.ID] != op {
		return // completed during the backoff wait
	}
	ini.send(op.req, op.target)
	ini.armTimer(op)
}

// expire handles a command whose expiry timer fired: retransmit after a
// capped exponential backoff, or abandon once the retry budget is spent.
func (ini *Initiator) expire(op *pendingOp) {
	if ini.pending[op.req.ID] != op {
		return // completed while the timer event was in flight
	}
	ini.Timeouts++
	if op.attempt >= ini.retry.MaxRetries {
		delete(ini.pending, op.req.ID)
		ini.FailedOps++
		if ini.OnFailed != nil {
			ini.OnFailed(op.req, ini.eng.Now())
		}
		return
	}
	op.attempt++
	ini.Retries++
	ini.eng.AfterArg(ini.retry.backoff(op.attempt), pendingResend, op)
}

// Instrument registers the initiator's recovery counters and,
// recorder-only, its outstanding retry-armed commands with a metrics
// registry. Initiators sharing labels sum. Nil reg is a no-op.
func (ini *Initiator) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc("nvmeof", "retries", obs.U64(&ini.Retries), labels...)
	reg.CounterFunc("nvmeof", "timeouts", obs.U64(&ini.Timeouts), labels...)
	reg.CounterFunc("nvmeof", "failed_ops", obs.U64(&ini.FailedOps), labels...)
	reg.CounterFunc("nvmeof", "stale_responses", obs.U64(&ini.StaleResponses), labels...)
	reg.GaugeFunc("nvmeof", "pending_cmds", obs.Probe, func() float64 { return float64(len(ini.pending)) }, labels...)
}

func (ini *Initiator) flowTo(m map[netsim.NodeID]*netsim.Flow, dst netsim.NodeID) *netsim.Flow {
	if f, ok := m[dst]; ok {
		return f
	}
	f := ini.net.NewFlow(ini.Node, ini.net.Node(dst))
	m[dst] = f
	return f
}

func (ini *Initiator) onMessage(_ *netsim.Flow, _ uint64, size int, payload any) {
	c, ok := payload.(*capsule)
	if !ok {
		panic(fmt.Sprintf("nvmeof: initiator %s received unexpected payload %T", ini.Node.Name, payload))
	}
	if ini.retry.Enabled() {
		op, ok := ini.pending[c.Req.ID]
		if !ok {
			// Duplicate completion (a retransmit raced the original) or a
			// completion for an already-abandoned command. Still return
			// the TXQ credit — each response carries its own.
			ini.StaleResponses++
			c.ackCredit()
			c.pool.put(c)
			return
		}
		ini.eng.Cancel(op.timer)
		delete(ini.pending, c.Req.ID)
	}
	if c.ReadData {
		ini.ReadsCompleted++
		ini.ReadBytesReceived += int64(c.Req.Size)
	} else {
		ini.WritesCompleted++
	}
	if ini.OnComplete != nil {
		ini.OnComplete(c.Req, c.ReadData, ini.eng.Now())
	}
	c.ackCredit()
	c.pool.put(c)
}
