package faults

import (
	"fmt"

	"srcsim/internal/netsim"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
)

// Binding hands Install the handles a schedule's selectors resolve
// against. The cluster package fills this in; tests may bind a bare
// network.
type Binding struct {
	Eng *sim.Engine
	Net *netsim.Network
	// Initiators and Targets are the host nodes, in cluster index order
	// ("initiator:N" / "target:N" select into these).
	Initiators []*netsim.Node
	Targets    []*netsim.Node
	// TargetDevices lists each target's flash-array devices (for
	// ssd-slow and target-stall). May be nil when no device-level events
	// are scheduled.
	TargetDevices [][]*ssd.Device
	// StallTelemetry, if set, cuts (true) or restores (false) the SRC
	// monitor feed of target i. Required for telemetry-stall events.
	StallTelemetry func(target int, stalled bool)
	// Ctrl is the in-band control plane, when one is enabled. Required
	// for ctrl-drop/ctrl-delay/ctrl-partition/controller-crash events.
	Ctrl CtrlPlane
	// Scope traces injections; may be nil.
	Scope *obs.Scope
}

// Injector is an installed schedule. All events are pre-resolved and
// pre-scheduled; the injector only accumulates counters as they fire.
type Injector struct {
	// Injected counts primitive fault actions actually fired (a
	// link-flap of Count 3 fires 3, each drop window fires 1).
	Injected uint64

	sc *obs.Scope
}

// lossState tracks the combined drop/corrupt probability per port so
// overlapping drop and corrupt windows compose instead of clobbering
// each other.
type lossState struct{ drop, corrupt float64 }

// Install validates the schedule against the bound cluster, seeds the
// chaos RNG, and schedules every event on the engine. A nil or empty
// schedule installs an inert injector. Errors are configuration
// mistakes (bad selector index, missing binding for a kind).
func Install(s *Schedule, b Binding) (*Injector, error) {
	inj := &Injector{sc: b.Scope}
	if s == nil {
		return inj, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Seed != 0 && b.Net != nil {
		b.Net.SeedChaos(s.Seed)
	}
	loss := make(map[*netsim.Port]*lossState)
	for i, ev := range s.Events {
		if err := inj.install(ev, b, loss); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	return inj, nil
}

// node resolves an event's Where selector to its host node.
func (b Binding) node(where string) (*netsim.Node, hostRole, int, error) {
	role, idx, err := parseWhere(where)
	if err != nil {
		return nil, 0, 0, err
	}
	hosts := b.Initiators
	if role == roleTarget {
		hosts = b.Targets
	}
	if idx >= len(hosts) {
		return nil, 0, 0, fmt.Errorf("%q: index %d out of range (have %d)", where, idx, len(hosts))
	}
	return hosts[idx], role, idx, nil
}

// uplink returns the host's single fabric port.
func uplink(node *netsim.Node) (*netsim.Port, error) {
	ports := node.Ports()
	if len(ports) == 0 {
		return nil, fmt.Errorf("node %s has no ports", node.Name)
	}
	return ports[0], nil
}

// fired accounts one primitive injection.
func (inj *Injector) fired(at sim.Time, ev Event, detail string) {
	inj.Injected++
	if inj.sc.Enabled() {
		inj.sc.Instant(at, "faults", string(ev.Kind)+" "+ev.Where+" "+detail)
	}
}

func (inj *Injector) install(ev Event, b Binding, loss map[*netsim.Port]*lossState) error {
	// Control-plane kinds act on the plane, not a fabric node; route them
	// before host resolution ("controller:0" names no host).
	if ctrlKind(ev.Kind) {
		return inj.installCtrl(ev, b)
	}
	node, _, idx, err := b.node(ev.Where)
	if err != nil {
		return err
	}
	if b.Eng == nil {
		return fmt.Errorf("binding has no engine")
	}
	switch ev.Kind {
	case LinkDown, LinkUp, LinkFlap:
		port, err := uplink(node)
		if err != nil {
			return err
		}
		down := func(at sim.Time, dur sim.Time) {
			b.Eng.Schedule(at, func() {
				b.Net.SetLinkState(port, false)
				inj.fired(at, ev, "down")
			})
			if dur > 0 {
				b.Eng.Schedule(at+dur, func() {
					b.Net.SetLinkState(port, true)
					inj.fired(at+dur, ev, "up")
				})
			}
		}
		switch ev.Kind {
		case LinkUp:
			b.Eng.Schedule(ev.At, func() {
				b.Net.SetLinkState(port, true)
				inj.fired(ev.At, ev, "up")
			})
		case LinkDown:
			down(ev.At, ev.Duration)
		default: // LinkFlap
			for i := 0; i < ev.Count; i++ {
				down(ev.At+sim.Time(i)*ev.Period, ev.Duration)
			}
		}

	case Drop, Corrupt:
		port, err := uplink(node)
		if err != nil {
			return err
		}
		// Both directions of the link lose packets.
		ports := []*netsim.Port{port, port.Peer()}
		apply := func(at sim.Time, p float64, detail string) {
			b.Eng.Schedule(at, func() {
				for _, pt := range ports {
					st := loss[pt]
					if st == nil {
						st = &lossState{}
						loss[pt] = st
					}
					if ev.Kind == Drop {
						st.drop = p
					} else {
						st.corrupt = p
					}
					pt.SetLoss(st.drop, st.corrupt)
				}
				inj.fired(at, ev, detail)
			})
		}
		apply(ev.At, ev.Probability, fmt.Sprintf("p=%g", ev.Probability))
		if ev.Duration > 0 {
			apply(ev.At+ev.Duration, 0, "clear")
		}

	case SSDSlow, TargetStall:
		if idx >= len(b.TargetDevices) || len(b.TargetDevices[idx]) == 0 {
			return fmt.Errorf("%q: no devices bound", ev.Where)
		}
		devs := b.TargetDevices[idx]
		apply := func(at sim.Time, active bool, detail string) {
			b.Eng.Schedule(at, func() {
				for _, d := range devs {
					if ev.Kind == SSDSlow {
						if active {
							d.SetSlowFactor(ev.Factor)
						} else {
							d.SetSlowFactor(1)
						}
					} else {
						d.SetHalted(active)
					}
				}
				inj.fired(at, ev, detail)
			})
		}
		apply(ev.At, true, "start")
		if ev.Duration > 0 {
			apply(ev.At+ev.Duration, false, "end")
		}

	case TelemetryStall:
		if b.StallTelemetry == nil {
			return fmt.Errorf("%q: no telemetry binding", ev.Where)
		}
		b.Eng.Schedule(ev.At, func() {
			b.StallTelemetry(idx, true)
			inj.fired(ev.At, ev, "start")
		})
		b.Eng.Schedule(ev.At+ev.Duration, func() {
			b.StallTelemetry(idx, false)
			inj.fired(ev.At+ev.Duration, ev, "end")
		})

	case PFCStorm:
		port, err := uplink(node)
		if err != nil {
			return err
		}
		count := ev.Count
		if count < 1 {
			count = 1
		}
		for i := 0; i < count; i++ {
			at := ev.At + sim.Time(i)*ev.Period
			b.Eng.Schedule(at, func() {
				b.Net.ForcePause(port, ev.Duration)
				inj.fired(at, ev, "pause")
			})
		}

	default:
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	return nil
}

// Instrument registers the injection count with a metrics registry,
// unlabelled, so one series totals every run sharing the registry. Nil
// reg is a no-op.
func (inj *Injector) Instrument(reg *obs.Registry) {
	reg.CounterFunc("faults", "injected", obs.U64(&inj.Injected))
}
