package netsim

import (
	"fmt"

	"srcsim/internal/dcqcn"
	"srcsim/internal/hpcc"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// Network owns the nodes, links, flows, and global counters of one
// simulated fabric.
type Network struct {
	Cfg Config

	eng   *sim.Engine
	rng   *sim.RNG
	nodes []*Node
	flows []*Flow // indexed by Flow.ID

	// pktFree recycles Packets: a frame is freed at each terminal point
	// (host delivery, pause/resume consumption, drop, corruption discard)
	// and reused for the next transmission, so the steady-state wire path
	// allocates nothing. Gated by sim.PoolingEnabled at construction.
	pktFree []*Packet
	poolOn  bool

	// chaosRNG drives injected packet loss/corruption. It is created
	// lazily on the first SetLoss/SeedChaos call and drawn from only when
	// a port has a non-zero loss probability, so fault-free runs never
	// touch it and stay byte-identical to pre-fault output.
	chaosRNG *sim.RNG

	obs *netObs

	// Global counters.
	ECNMarks   uint64
	PFCPauses  uint64
	PFCResumes uint64
	CNPsSent   uint64

	// Fault and recovery counters (all zero unless faults are injected
	// or the PFC watchdog is enabled).
	DroppedPackets   uint64 // lost to injected drop probability or dead links
	CorruptedPackets uint64 // damaged by injected corruption (discarded downstream)
	RouteDrops       uint64 // forwarded packets with no surviving route
	WatchdogTrips    uint64 // PFC pauses force-resumed by the watchdog
	ForcedPauses     uint64 // adversarial pauses injected via ForcePause
	LinkDowns        uint64
	LinkUps          uint64
}

// netObs holds the fabric's instrumentation: the registry and labels
// per-flow series register under, plus handles for the quantities no
// field holds. nil when observability is off, so hot paths pay a single
// pointer test.
type netObs struct {
	sc     *obs.Scope
	reg    *obs.Registry
	labels []obs.Label

	queuePeak *obs.Gauge

	// Shared DCQCN per-flow handles (see dcqcn.RPObs).
	rpCuts     *obs.Counter
	rpCutDepth *obs.Histogram
}

// Instrument attaches the fabric to a metrics registry and trace scope.
// Either may be nil. The fabric's counter fields register as
// read-through series; flows created after this call register their own
// state and inherit DCQCN instrumentation, flows created before do not.
// With both arguments nil the call is a no-op and the fabric stays on
// its zero-overhead path.
func (n *Network) Instrument(reg *obs.Registry, sc *obs.Scope, labels ...obs.Label) {
	if reg == nil && !sc.Enabled() {
		return
	}
	n.obs = &netObs{
		sc:         sc,
		reg:        reg,
		labels:     labels,
		queuePeak:  reg.Gauge("netsim", "port_queue_peak_bytes", labels...),
		rpCuts:     reg.Counter("dcqcn", "rate_cuts", labels...),
		rpCutDepth: reg.Histogram("dcqcn", "cut_depth_pct", labels...),
	}
	if reg == nil {
		return
	}
	for name, v := range map[string]*uint64{
		"ecn_marks":          &n.ECNMarks,
		"pfc_pauses":         &n.PFCPauses,
		"pfc_resumes":        &n.PFCResumes,
		"cnps_sent":          &n.CNPsSent,
		"pfc_watchdog_trips": &n.WatchdogTrips,
		"dropped_packets":    &n.DroppedPackets,
		"corrupted_packets":  &n.CorruptedPackets,
		"route_drops":        &n.RouteDrops,
		"link_downs":         &n.LinkDowns,
		"forced_pauses":      &n.ForcedPauses,
	} {
		reg.CounterFunc("netsim", name, obs.U64(v), labels...)
	}
	nics := func(field func(*HostNIC) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for _, node := range n.nodes {
				if node.NIC != nil {
					total += field(node.NIC)
				}
			}
			return float64(total)
		}
	}
	reg.CounterFunc("netsim", "nic_bytes_sent", nics(func(c *HostNIC) uint64 { return c.BytesSent }), labels...)
	reg.CounterFunc("netsim", "nic_bytes_received", nics(func(c *HostNIC) uint64 { return c.BytesReceived }), labels...)
	reg.CounterFunc("netsim", "nic_msgs_delivered", nics(func(c *HostNIC) uint64 { return c.MsgsDelivered }), labels...)
	rps := func(field func(*dcqcn.RP) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for _, f := range n.flows {
				if rp, ok := f.RP.(*dcqcn.RP); ok {
					total += field(rp)
				}
			}
			return float64(total)
		}
	}
	reg.CounterFunc("dcqcn", "cnps_received", rps(func(rp *dcqcn.RP) uint64 { return rp.CNPs }), labels...)
	reg.CounterFunc("dcqcn", "rate_increases", rps(func(rp *dcqcn.RP) uint64 { return rp.RateIncreases }), labels...)

	reg.GaugeFunc("netsim", "switch_queue_bytes_total", obs.Probe, func() float64 {
		return float64(n.SwitchQueuedBytes())
	}, labels...)
	reg.GaugeFunc("netsim", "switch_queue_bytes_max", obs.Probe, func() float64 {
		var peak int64
		for _, node := range n.nodes {
			if node.IsSwitch {
				for _, p := range node.ports {
					peak = max(peak, p.QueueBytes)
				}
			}
		}
		return float64(peak)
	}, labels...)
	reg.GaugeFunc("netsim", "ports_paused", obs.Probe, func() float64 {
		paused := 0
		for _, node := range n.nodes {
			for _, p := range node.ports {
				if p.paused {
					paused++
				}
			}
		}
		return float64(paused)
	}, labels...)
}

// SwitchQueuedBytes returns the total bytes queued at switch egress
// ports — the fabric-load probe behind the control plane's
// congestion-coupled message delay.
func (n *Network) SwitchQueuedBytes() int64 {
	var total int64
	for _, node := range n.nodes {
		if !node.IsSwitch {
			continue
		}
		for _, p := range node.ports {
			total += p.QueueBytes
		}
	}
	return total
}

// NewNetwork builds an empty fabric on eng.
func NewNetwork(eng *sim.Engine, cfg Config) (*Network, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		Cfg:    cfg,
		eng:    eng,
		rng:    sim.NewRNG(cfg.Seed ^ 0x6e7374),
		poolOn: sim.PoolingEnabled(),
	}, nil
}

// allocPkt takes a zeroed Packet from the free list (or the heap).
func (n *Network) allocPkt() *Packet {
	if k := len(n.pktFree); k > 0 {
		pkt := n.pktFree[k-1]
		n.pktFree[k-1] = nil
		n.pktFree = n.pktFree[:k-1]
		return pkt
	}
	return &Packet{}
}

// freePkt returns a packet that has reached a terminal point. The packet
// is zeroed here so a recycled frame can never leak ECN/Corrupted/Payload
// state into its next flight.
func (n *Network) freePkt(pkt *Packet) {
	*pkt = Packet{}
	if n.poolOn {
		n.pktFree = append(n.pktFree, pkt)
	}
}

// chaos returns the loss RNG, creating it from the fabric seed on first
// use. Kept separate from the ECN stream so enabling faults never
// perturbs marking decisions of the fault-free portions of a run.
func (n *Network) chaos() *sim.RNG {
	if n.chaosRNG == nil {
		n.chaosRNG = sim.NewRNG(n.Cfg.Seed ^ 0x63686173)
	}
	return n.chaosRNG
}

// SeedChaos (re)seeds the loss RNG, pinning injected packet loss to a
// fault-schedule seed independent of the fabric seed.
func (n *Network) SeedChaos(seed uint64) { n.chaosRNG = sim.NewRNG(seed ^ 0x63686173) }

// Node is a host or switch.
type Node struct {
	ID       NodeID
	Name     string
	IsSwitch bool

	net      *Network
	ports    []*Port
	nextHops [][]int16 // per destination: candidate egress port indexes

	// Hosts only.
	NIC *HostNIC

	// PFC ingress accounting (switches and hosts alike).
	ingressBytes []int64
	xoffSent     []bool

	// Counters.
	PFCPausesRx uint64
	ForwardedPk uint64
}

// AddHost adds a host node with an attached NIC.
func (n *Network) AddHost(name string) *Node {
	node := &Node{ID: NodeID(len(n.nodes)), Name: name, net: n}
	node.NIC = newHostNIC(node)
	n.nodes = append(n.nodes, node)
	return node
}

// AddSwitch adds a switch node.
func (n *Network) AddSwitch(name string) *Node {
	node := &Node{ID: NodeID(len(n.nodes)), Name: name, IsSwitch: true, net: n}
	n.nodes = append(n.nodes, node)
	return node
}

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Port is one direction of attachment of a node to a link: it owns the
// egress queue toward its peer.
type Port struct {
	node  *Node
	index int
	peer  *Port

	rate  float64  // bits/s
	delay sim.Time // propagation

	ctrlQ        []*Packet
	ctrlHead     int
	dataQ        []*Packet
	dataHead     int
	QueueBytes   int64
	transmitting bool
	paused       bool

	// Fault state (see SetLinkState / SetLoss).
	down        bool
	downAt      sim.Time
	dropProb    float64
	corruptProb float64

	// Counters.
	TxPackets, TxBytes uint64
	PausedTime         sim.Time
	pausedAt           sim.Time
}

// Peer returns the other end of this port's link.
func (p *Port) Peer() *Port { return p.peer }

// SetLoss sets this egress direction's per-packet drop and corruption
// probabilities, breaking the fabric's lossless assumption (fault
// injection). Zero/zero restores perfect delivery.
func (p *Port) SetLoss(drop, corrupt float64) {
	if drop < 0 || drop > 1 || corrupt < 0 || corrupt > 1 {
		panic(fmt.Sprintf("netsim: loss probabilities %v/%v out of [0,1]", drop, corrupt))
	}
	if drop > 0 || corrupt > 0 {
		p.node.net.chaos() // materialise the RNG before traffic draws from it
	}
	p.dropProb, p.corruptProb = drop, corrupt
}

// SetLinkState fails or restores the full-duplex link owned by p (both
// directions; either end may be passed). A down link stops transmitting —
// queued packets wait, frames already on the wire still deliver — and is
// excluded from routing: ComputeRoutes runs on every transition, so
// traffic fails over to surviving paths where the topology has them and
// is dropped (counted in RouteDrops) where it does not.
func (n *Network) SetLinkState(p *Port, up bool) {
	if p.down == !up {
		return
	}
	now := n.eng.Now()
	if up {
		p.down, p.peer.down = false, false
		n.LinkUps++
		if o := n.obs; o != nil && o.sc.Enabled() {
			o.sc.Span("netsim", fmt.Sprintf("link_down %s<>%s", p.node.Name, p.peer.node.Name),
				p.downAt, now)
		}
	} else {
		p.down, p.peer.down = true, true
		p.downAt, p.peer.downAt = now, now
		n.LinkDowns++
	}
	n.ComputeRoutes()
	if up {
		p.trySend()
		p.peer.trySend()
	}
}

// Connect links two nodes with a full-duplex link of the given rate
// (bits/s; 0 uses the configured line rate) and propagation delay.
func (n *Network) Connect(a, b *Node, rate float64, delay sim.Time) (ab, ba *Port) {
	if rate <= 0 {
		rate = n.Cfg.DCQCN.LineRate
	}
	if delay < 0 {
		panic("netsim: negative link delay")
	}
	pa := &Port{node: a, index: len(a.ports), rate: rate, delay: delay}
	pb := &Port{node: b, index: len(b.ports), rate: rate, delay: delay}
	pa.peer, pb.peer = pb, pa
	a.ports = append(a.ports, pa)
	a.ingressBytes = append(a.ingressBytes, 0)
	a.xoffSent = append(a.xoffSent, false)
	b.ports = append(b.ports, pb)
	b.ingressBytes = append(b.ingressBytes, 0)
	b.xoffSent = append(b.xoffSent, false)
	return pa, pb
}

// ComputeRoutes builds per-destination ECMP next-hop tables with BFS.
// Call after the topology is final and before any traffic.
func (n *Network) ComputeRoutes() {
	total := len(n.nodes)
	for _, node := range n.nodes {
		node.nextHops = make([][]int16, total)
	}
	for _, dst := range n.nodes {
		// BFS from dst over reverse edges (links are symmetric).
		dist := make([]int, total)
		for i := range dist {
			dist[i] = -1
		}
		dist[dst.ID] = 0
		queue := []*Node{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range cur.ports {
				if p.down {
					continue
				}
				nb := p.peer.node
				if dist[nb.ID] < 0 {
					dist[nb.ID] = dist[cur.ID] + 1
					queue = append(queue, nb)
				}
			}
		}
		for _, node := range n.nodes {
			if node.ID == dst.ID || dist[node.ID] < 0 {
				continue
			}
			for i, p := range node.ports {
				if p.down {
					continue
				}
				if d := dist[p.peer.node.ID]; d >= 0 && d == dist[node.ID]-1 {
					node.nextHops[dst.ID] = append(node.nextHops[dst.ID], int16(i))
				}
			}
		}
	}
}

// pickEgress selects the ECMP next hop for a packet at node. It returns
// nil when the routing tables are computed but no path survives (links
// down): the caller drops the packet. A nil table still panics — that is
// a wiring bug, not a fault.
func (node *Node) pickEgress(pkt *Packet) *Port {
	if node.nextHops == nil {
		panic(fmt.Sprintf("netsim: no route from %s to node %d (ComputeRoutes missing?)", node.Name, pkt.Dst))
	}
	hops := node.nextHops[pkt.Dst]
	if len(hops) == 0 {
		return nil
	}
	if len(hops) == 1 {
		return node.ports[hops[0]]
	}
	// Deterministic flow hash keeps a flow on one path (no reordering).
	h := uint64(pkt.FlowID)*0x9e3779b97f4a7c15 ^ uint64(pkt.Src)<<32 ^ uint64(pkt.Dst)
	h ^= h >> 29
	return node.ports[hops[h%uint64(len(hops))]]
}

// enqueueCtrl queues a control frame (CNP/PFC) at highest priority;
// control traffic ignores PFC pause and never gets ECN-marked.
func (p *Port) enqueueCtrl(pkt *Packet) {
	p.ctrlQ = append(p.ctrlQ, pkt)
	p.trySend()
}

// enqueueData queues a data packet, applying ECN marking at switches and
// PFC ingress accounting.
func (p *Port) enqueueData(pkt *Packet) {
	net := p.node.net
	if p.node.IsSwitch && !net.Cfg.DisableECN && !pkt.ECN {
		if net.rng.Float64() < net.Cfg.DCQCN.MarkProbability(p.QueueBytes) {
			pkt.ECN = true
			net.ECNMarks++
			if o := net.obs; o != nil && o.sc.Enabled() {
				o.sc.Instant(net.eng.Now(), "netsim", "ecn_mark "+p.node.Name,
					obs.Num("queue_bytes", float64(p.QueueBytes)))
			}
		}
	}
	p.dataQ = append(p.dataQ, pkt)
	p.QueueBytes += int64(pkt.Size)
	if o := net.obs; o != nil {
		o.queuePeak.SetMax(float64(p.QueueBytes))
	}
	if pkt.ingress != nil {
		node := p.node
		in := pkt.ingress.index
		node.ingressBytes[in] += int64(pkt.Size)
		if !net.Cfg.DisablePFC && !node.xoffSent[in] && node.ingressBytes[in] > net.Cfg.PFCXoff {
			node.xoffSent[in] = true
			node.sendPFC(pkt.ingress, PauseFrame)
		}
	}
	p.trySend()
}

// sendPFC emits a pause/resume frame out of the given ingress port to the
// upstream neighbour.
func (node *Node) sendPFC(in *Port, kind Kind) {
	net := node.net
	if kind == PauseFrame {
		net.PFCPauses++
	} else {
		net.PFCResumes++
	}
	pkt := net.allocPkt()
	pkt.Src, pkt.Dst = node.ID, in.peer.node.ID
	pkt.Size, pkt.Kind = net.Cfg.CtrlPacketSize, kind
	in.enqueueCtrl(pkt)
}

// trySend starts transmitting the next eligible packet, if idle. A down
// link transmits nothing: queued packets wait for SetLinkState to
// restore it.
func (p *Port) trySend() {
	if p.transmitting || p.down {
		return
	}
	var pkt *Packet
	switch {
	case p.ctrlHead < len(p.ctrlQ):
		pkt = p.ctrlQ[p.ctrlHead]
		p.ctrlQ[p.ctrlHead] = nil
		p.ctrlHead++
		if p.ctrlHead > 64 && p.ctrlHead*2 >= len(p.ctrlQ) {
			p.ctrlQ = append(p.ctrlQ[:0], p.ctrlQ[p.ctrlHead:]...)
			p.ctrlHead = 0
		}
	case p.dataHead < len(p.dataQ) && !p.paused:
		pkt = p.dataQ[p.dataHead]
		p.dataQ[p.dataHead] = nil
		p.dataHead++
		if p.dataHead > 64 && p.dataHead*2 >= len(p.dataQ) {
			p.dataQ = append(p.dataQ[:0], p.dataQ[p.dataHead:]...)
			p.dataHead = 0
		}
		p.QueueBytes -= int64(pkt.Size)
		if pkt.ingress != nil {
			node := p.node
			in := pkt.ingress.index
			node.ingressBytes[in] -= int64(pkt.Size)
			net := p.node.net
			if node.xoffSent[in] && node.ingressBytes[in] < net.Cfg.PFCXon {
				node.xoffSent[in] = false
				node.sendPFC(pkt.ingress, ResumeFrame)
			}
			pkt.ingress = nil
		}
	default:
		return
	}

	p.transmitting = true
	eng := p.node.net.eng
	txTime := sim.Time(float64(pkt.Size*8) / p.rate * float64(sim.Second))
	if txTime < 1 {
		txTime = 1
	}
	pkt.tx = p
	eng.AfterArg(txTime, portTxDone, pkt)
}

// portTxDone resumes a frame whose serialisation just finished on pkt.tx.
func portTxDone(x any) {
	pkt := x.(*Packet)
	p := pkt.tx
	pkt.tx = nil
	p.txDone(pkt)
}

// deliverPkt hands a propagated frame to the node behind pkt.rx.
func deliverPkt(x any) {
	pkt := x.(*Packet)
	in := pkt.rx
	pkt.rx = nil
	in.node.receive(pkt, in)
}

// txDone completes one frame's serialisation: account it, apply injected
// faults, and put it on the wire toward the peer.
func (p *Port) txDone(pkt *Packet) {
	p.transmitting = false
	p.TxPackets++
	p.TxBytes += uint64(pkt.Size)
	net := p.node.net
	if p.down {
		// The link failed while the frame was being serialised.
		net.DroppedPackets++
		net.freePkt(pkt)
		return
	}
	if p.dropProb > 0 && net.chaos().Float64() < p.dropProb {
		net.DroppedPackets++
		net.freePkt(pkt)
		p.trySend()
		return
	}
	if p.corruptProb > 0 && net.chaos().Float64() < p.corruptProb {
		pkt.Corrupted = true
		net.CorruptedPackets++
	}
	pkt.rx = p.peer
	net.eng.AfterArg(p.delay, deliverPkt, pkt)
	p.trySend()
}

// DataQueueLen returns the number of waiting data packets.
func (p *Port) DataQueueLen() int { return len(p.dataQ) - p.dataHead }

// Paused reports whether PFC has silenced this port's data traffic.
func (p *Port) Paused() bool { return p.paused }

// receive handles a packet arriving at node on port in.
func (node *Node) receive(pkt *Packet, in *Port) {
	net := node.net
	if pkt.Corrupted {
		// Failed FCS check: the frame is discarded at line ingress, so it
		// neither pauses, resumes, nor delivers anything.
		net.freePkt(pkt)
		return
	}
	switch pkt.Kind {
	case PauseFrame:
		node.PFCPausesRx++
		in.pause()
		net.freePkt(pkt)
		return
	case ResumeFrame:
		in.resume()
		net.freePkt(pkt)
		return
	}
	if pkt.Dst == node.ID {
		if node.NIC == nil {
			panic(fmt.Sprintf("netsim: packet addressed to switch %s", node.Name))
		}
		node.NIC.receive(pkt)
		net.freePkt(pkt)
		return
	}
	// Forward.
	node.ForwardedPk++
	egress := node.pickEgress(pkt)
	if egress == nil {
		// No surviving path (links down): the fabric sheds the packet and
		// end-to-end recovery (NVMe-oF retry) takes over.
		net.RouteDrops++
		net.DroppedPackets++
		net.freePkt(pkt)
		return
	}
	if pkt.Kind == Data {
		pkt.ingress = in
		if pkt.INT != nil {
			// Stamp this hop's telemetry (CCHPCC flows only): the egress
			// queue depth before this packet joins it, the port's
			// cumulative TxBytes (consecutive samples yield its output
			// rate), and the port rate.
			pkt.INT.AddHop(hpcc.INTHop{
				Node:    uint32(node.ID),
				Queue:   uint64(egress.QueueBytes),
				TxBytes: egress.TxBytes,
				TsNs:    uint64(net.eng.Now()),
				RateBps: uint64(egress.rate),
			})
		}
		egress.enqueueData(pkt)
	} else {
		egress.enqueueCtrl(pkt)
	}
}

// pause silences the port's data traffic (a PFC pause frame arrived) and
// arms the storm watchdog when configured.
func (p *Port) pause() {
	if p.paused {
		return
	}
	p.paused = true
	p.pausedAt = p.node.net.eng.Now()
	p.armWatchdog()
}

// resume lifts a PFC pause, accounting the paused interval and restarting
// transmission. Safe to call on an unpaused port.
func (p *Port) resume() {
	if !p.paused {
		return
	}
	p.paused = false
	net := p.node.net
	now := net.eng.Now()
	p.PausedTime += now - p.pausedAt
	if o := net.obs; o != nil && o.sc.Enabled() {
		o.sc.Span("netsim", fmt.Sprintf("pfc_pause %s:p%d", p.node.Name, p.index),
			p.pausedAt, now)
	}
	p.trySend()
}

// armWatchdog schedules a PFC storm check for the pause episode that just
// began. If the same episode is still in force when the check fires, the
// watchdog trips: the trip is counted, surfaced as a trace instant, and
// the port is force-resumed — recovery from pause storms and lost resume
// frames. No-op unless Config.PFCWatchdog is positive.
func (p *Port) armWatchdog() {
	net := p.node.net
	wd := net.Cfg.PFCWatchdog
	if wd <= 0 {
		return
	}
	started := p.pausedAt
	net.eng.After(wd, func() {
		if !p.paused || p.pausedAt != started {
			return
		}
		net.WatchdogTrips++
		if o := net.obs; o != nil && o.sc.Enabled() {
			o.sc.Instant(net.eng.Now(), "netsim",
				fmt.Sprintf("pfc_watchdog_trip %s:p%d", p.node.Name, p.index),
				obs.Num("paused_us", (net.eng.Now()-started).Micros()))
		}
		p.resume()
	})
}

// ForcePause injects an adversarial PFC pause on the port's data traffic,
// as if a rogue peer emitted a pause storm. With d > 0 the pause lifts
// after d; with d == 0 it persists until a genuine resume frame arrives or
// the PFC watchdog trips.
func (n *Network) ForcePause(p *Port, d sim.Time) {
	n.ForcedPauses++
	p.pause()
	if d > 0 {
		started := p.pausedAt
		n.eng.After(d, func() {
			if p.paused && p.pausedAt == started {
				p.resume()
			}
		})
	}
}

// Ports returns the node's ports (for inspection in tests/metrics).
func (node *Node) Ports() []*Port { return node.ports }
