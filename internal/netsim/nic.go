package netsim

import (
	"fmt"
	"strconv"

	"srcsim/internal/dcqcn"
	"srcsim/internal/hpcc"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// HostNIC terminates flows at a host: it paces per-flow transmission
// under a DCQCN reaction point, reassembles received messages, generates
// CNPs for ECN-marked arrivals (notification point), and dispatches CNPs
// back to the owning flow's RP.
type HostNIC struct {
	node *Node

	// OnMessage is invoked when a complete message arrives, with the
	// delivering flow, the message size, and the sender-attached payload.
	OnMessage func(flow *Flow, msgID uint64, size int, payload any)

	flows []*Flow // flows originating here

	// recv holds reassembly byte counts only for messages that were
	// interrupted by reordering (possible during routing failover). The
	// common in-order case lives in the owning Flow's recvMsg/recvGot
	// fields, so fault-free runs never touch this map.
	recv map[recvKey]int

	// Counters.
	CNPsReceived  uint64
	BytesSent     uint64
	BytesReceived uint64
	MsgsDelivered uint64
}

type recvKey struct {
	flow int
	msg  uint64
}

func newHostNIC(node *Node) *HostNIC {
	return &HostNIC{node: node}
}

// Flow is a unidirectional RDMA-like data stream between two hosts with
// its own DCQCN state. Messages sent on a flow are segmented into MTU
// packets, paced at the RP's current rate, and delivered in order.
type Flow struct {
	ID  int
	Src *Node
	Dst *Node

	// RP is the flow's reaction point (DCQCN by default; selected by
	// Config.CC through the CC registry).
	RP RateController
	NP *dcqcn.NP

	nic *HostNIC

	// Scheme capabilities, resolved once at flow creation so the
	// per-packet paths pay a field test instead of a registry lookup and
	// type assertion: wantsCNP gates the receiver's notification point,
	// intRP/ecnRP are the controller's optional INT and ECN-echo hooks
	// (needsINT mirrors intRP != nil for the sender side).
	wantsCNP bool
	needsINT bool
	intRP    INTObserver
	ecnRP    ECNEchoObserver

	sendq    []outMsg
	sendHead int // consumed prefix of sendq (compacted as it grows)
	headSent int // bytes of the head message already transmitted
	pacing   bool
	nextFree sim.Time
	nextMsg  uint64

	// Receiver-side reassembly state for the (at most one, under in-order
	// delivery) in-flight inbound message on this flow.
	recvMsg uint64
	recvGot int

	// QueuedBytes counts bytes accepted by Send but not yet handed to
	// the port — together with the port queue this is the paper's "TXQ"
	// backlog on targets.
	QueuedBytes int64
}

type outMsg struct {
	id      uint64
	size    int
	payload any
}

// staticRC is the CCNone controller: a fixed line-rate pacer.
type staticRC struct{ rate float64 }

func (s *staticRC) Rate() float64                          { return s.rate }
func (s *staticRC) OnBytesSent(int)                        {}
func (s *staticRC) OnCongestionSignal()                    {}
func (s *staticRC) OnAck(sim.Time)                         {}
func (s *staticRC) NeedsAck() bool                         { return false }
func (s *staticRC) SetRateListener(func(old, new float64)) {}

// ccScheme resolves the configured scheme; Config.Validate rejected
// unknown values at NewNetwork, so a miss here is a wiring bug.
func (n *Network) ccScheme() *CCScheme {
	sch, ok := LookupCC(n.Cfg.CC)
	if !ok {
		panic(fmt.Sprintf("netsim: unregistered CC algorithm %v (Validate skipped?)", n.Cfg.CC))
	}
	return sch
}

// newRateController builds the configured reaction point through the CC
// registry.
func (n *Network) newRateController() RateController {
	return n.ccScheme().New(CCEnv{Eng: n.eng, Cfg: &n.Cfg})
}

// NewFlow creates a flow from src to dst. Rate-change notifications can
// be observed via flow.RP.SetRateListener.
func (n *Network) NewFlow(src, dst *Node) *Flow {
	if src.NIC == nil || dst.NIC == nil {
		panic("netsim: flows connect hosts, not switches")
	}
	if src == dst {
		panic("netsim: flow to self")
	}
	sch := n.ccScheme()
	f := &Flow{
		ID:  len(n.flows),
		Src: src, Dst: dst,
		RP:  n.newRateController(),
		NP:  dcqcn.NewNP(n.Cfg.DCQCN),
		nic: src.NIC,

		wantsCNP: sch.WantsCNP,
	}
	f.intRP, _ = f.RP.(INTObserver)
	f.ecnRP, _ = f.RP.(ECNEchoObserver)
	f.needsINT = f.intRP != nil
	n.flows = append(n.flows, f)
	src.NIC.flows = append(src.NIC.flows, f)
	if o := n.obs; o != nil {
		if rp, ok := f.RP.(*dcqcn.RP); ok {
			rp.Obs = &dcqcn.RPObs{
				Scope:    o.sc,
				Name:     fmt.Sprintf("flow%d %s>%s", f.ID, src.Name, dst.Name),
				RateCuts: o.rpCuts,
				CutDepth: o.rpCutDepth,
			}
		}
	}
	if o := n.obs; o != nil && o.reg != nil {
		fl := append(o.labels[:len(o.labels):len(o.labels)], obs.L("flow", strconv.Itoa(f.ID)))
		o.reg.GaugeFunc("netsim", "flow_queued_bytes", obs.Probe, func() float64 { return float64(f.QueuedBytes) }, fl...)
		o.reg.GaugeFunc("netsim", "flow_rate_gbps", obs.Probe, func() float64 { return f.RP.Rate() / 1e9 }, fl...)
		if in, ok := f.RP.(Instrumented); ok {
			in.Instrument(o.reg, fl...)
		}
	}
	return f
}

// Flow returns a flow by ID, or nil for an unknown ID.
func (n *Network) Flow(id int) *Flow {
	if id < 0 || id >= len(n.flows) {
		return nil
	}
	return n.flows[id]
}

// Send queues a message of size bytes on the flow; payload is delivered
// with the receiver's OnMessage callback. Returns the message ID.
func (f *Flow) Send(size int, payload any) uint64 {
	if size <= 0 {
		panic(fmt.Sprintf("netsim: message size %d", size))
	}
	id := f.nextMsg
	f.nextMsg++
	f.sendq = append(f.sendq, outMsg{id: id, size: size, payload: payload})
	f.QueuedBytes += int64(size)
	f.pump()
	return id
}

// Backlog returns bytes accepted by Send but not yet paced out to the
// host port. Together with the port queue (HostNIC.TXQBytes) this is the
// paper's "TXQ" backlog on targets.
func (f *Flow) Backlog() int64 { return f.QueuedBytes }

// TXQBytes returns the bytes waiting in this host's port queues — data
// that DCQCN or PFC is holding back from the wire.
func (nic *HostNIC) TXQBytes() int64 {
	var total int64
	for _, p := range nic.node.ports {
		total += p.QueueBytes
	}
	return total
}

// pump emits the next MTU chunk of the head message, paced at the RP
// rate. Exactly one pacing event is in flight per flow; the event carries
// the flow itself, so pacing allocates nothing.
func (f *Flow) pump() {
	if f.pacing || f.sendHead >= len(f.sendq) {
		return
	}
	f.pacing = true
	eng := f.Src.net.eng
	at := eng.Now()
	if f.nextFree > at {
		at = f.nextFree
	}
	eng.ScheduleArg(at, flowEmit, f)
}

func flowEmit(x any) { x.(*Flow).emit() }

// emit transmits one MTU chunk of the head message at the paced instant.
func (f *Flow) emit() {
	net := f.Src.net
	eng := net.eng
	at := eng.Now()
	msg := &f.sendq[f.sendHead]
	chunk := msg.size - f.headSent
	mtu := net.Cfg.MTU
	last := chunk <= mtu
	if chunk > mtu {
		chunk = mtu
	}
	pkt := net.allocPkt()
	pkt.Src, pkt.Dst = f.Src.ID, f.Dst.ID
	pkt.FlowID, pkt.MsgID, pkt.MsgSize = f.ID, msg.id, msg.size
	pkt.Size, pkt.Kind, pkt.Last = chunk, Data, last
	pkt.SentAt = at
	if f.needsINT {
		pkt.INT = &hpcc.INTHeader{}
	}
	if last {
		pkt.Payload = msg.payload
		*msg = outMsg{}
		f.sendHead++
		if f.sendHead > 64 && f.sendHead*2 >= len(f.sendq) {
			f.sendq = append(f.sendq[:0], f.sendq[f.sendHead:]...)
			f.sendHead = 0
		}
		f.headSent = 0
	} else {
		f.headSent += chunk
	}
	f.QueuedBytes -= int64(chunk)
	f.nic.BytesSent += uint64(chunk)

	if len(f.Src.ports) == 0 {
		panic(fmt.Sprintf("netsim: host %s has no link", f.Src.Name))
	}
	f.Src.ports[0].enqueueData(pkt)
	f.RP.OnBytesSent(chunk)

	rate := f.RP.Rate()
	gap := sim.Time(float64(chunk*8) / rate * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	f.nextFree = at + gap
	f.pacing = false
	f.pump()
}

// sendCtrl routes a control frame toward dst.
func (nic *HostNIC) sendCtrl(pkt *Packet, dst NodeID) {
	if len(nic.node.ports) == 0 {
		return
	}
	if nic.node.nextHops != nil && len(nic.node.nextHops[dst]) > 0 {
		nic.node.pickEgress(pkt).enqueueCtrl(pkt)
		return
	}
	nic.node.ports[0].enqueueCtrl(pkt)
}

// receive handles data, ack, and CNP packets addressed to this host.
func (nic *HostNIC) receive(pkt *Packet) {
	net := nic.node.net
	switch pkt.Kind {
	case CNP:
		nic.CNPsReceived++
		if f := net.Flow(pkt.FlowID); f != nil {
			f.RP.OnCongestionSignal()
		}
		return
	case Ack:
		if f := net.Flow(pkt.FlowID); f != nil {
			if f.intRP != nil && pkt.INT != nil {
				f.intRP.OnINTAck(pkt.INT)
			}
			if f.ecnRP != nil {
				f.ecnRP.OnAckECN(pkt.ECN)
			}
			f.RP.OnAck(net.eng.Now() - pkt.SentAt)
		}
		return
	case Data:
		flow := net.Flow(pkt.FlowID)
		if pkt.ECN && flow != nil && flow.wantsCNP && flow.NP.OnMarkedPacket(net.eng.Now()) {
			// Send a CNP back to the sender.
			net.CNPsSent++
			cnp := net.allocPkt()
			cnp.Src, cnp.Dst = nic.node.ID, pkt.Src
			cnp.FlowID, cnp.Size, cnp.Kind = pkt.FlowID, net.Cfg.CtrlPacketSize, CNP
			nic.sendCtrl(cnp, pkt.Src)
		}
		if flow != nil && flow.RP.NeedsAck() {
			// Echo an RTT probe back to the sender. Schemes that consume
			// INT or per-ack ECN get the data packet's telemetry moved or
			// copied onto the acknowledgement.
			ack := net.allocPkt()
			ack.Src, ack.Dst = nic.node.ID, pkt.Src
			ack.FlowID, ack.Size = pkt.FlowID, net.Cfg.CtrlPacketSize
			ack.Kind, ack.SentAt = Ack, pkt.SentAt
			if flow.intRP != nil {
				ack.INT, pkt.INT = pkt.INT, nil
			}
			if flow.ecnRP != nil {
				ack.ECN = pkt.ECN
			}
			nic.sendCtrl(ack, pkt.Src)
		}
		nic.BytesReceived += uint64(pkt.Size)
		var got int
		if flow != nil {
			// Fast path: the flow's in-flight message accumulates in two
			// flow-local fields. A message interrupted mid-reassembly (only
			// possible when routing failover reorders packets) spills into
			// the recv map and is restored when its packets resume.
			if flow.recvMsg != pkt.MsgID {
				if flow.recvGot > 0 {
					if nic.recv == nil {
						nic.recv = make(map[recvKey]int)
					}
					nic.recv[recvKey{flow: pkt.FlowID, msg: flow.recvMsg}] = flow.recvGot
				}
				flow.recvMsg = pkt.MsgID
				flow.recvGot = 0
				if len(nic.recv) > 0 {
					key := recvKey{flow: pkt.FlowID, msg: pkt.MsgID}
					if v, ok := nic.recv[key]; ok {
						flow.recvGot = v
						delete(nic.recv, key)
					}
				}
			}
			got = flow.recvGot + pkt.Size
			if got < pkt.MsgSize {
				flow.recvGot = got
				return
			}
			flow.recvGot = 0
		} else {
			if nic.recv == nil {
				nic.recv = make(map[recvKey]int)
			}
			key := recvKey{flow: pkt.FlowID, msg: pkt.MsgID}
			got = nic.recv[key] + pkt.Size
			if got < pkt.MsgSize {
				nic.recv[key] = got
				return
			}
			delete(nic.recv, key)
		}
		nic.MsgsDelivered++
		if nic.OnMessage != nil {
			nic.OnMessage(flow, pkt.MsgID, pkt.MsgSize, pkt.Payload)
		}
	default:
		panic(fmt.Sprintf("netsim: NIC received %v frame", pkt.Kind))
	}
}
