// Package cluster assembles the full disaggregated storage testbed of
// Sec. IV: a fabric (rack or Clos) of initiators and targets, each
// target a flash array behind the baseline NVMe arbitration or the
// paper's SSQ, optionally controlled by SRC — and collects the paper's
// metrics: per-millisecond read throughput at initiators, write
// throughput at targets, pause (congestion-signal) counts, and SRC
// weight adjustments.
package cluster

import (
	"fmt"
	"io"

	"srcsim/internal/core"
	"srcsim/internal/ctrlplane"
	"srcsim/internal/faults"
	"srcsim/internal/guard"
	"srcsim/internal/netsim"
	"srcsim/internal/nvme"
	"srcsim/internal/nvmeof"
	"srcsim/internal/obs"
	"srcsim/internal/obs/live"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/stats"
	"srcsim/internal/trace"
)

// Mode selects the target-side configuration under test.
type Mode int

const (
	// DCQCNOnly is the baseline: default NVMe multi-queue arbitration
	// (Fig. 4-a); only the network throttles reads.
	DCQCNOnly Mode = iota
	// DCQCNSRC adds the paper's SSQ + TPM + dynamic adjustment on every
	// target.
	DCQCNSRC
	// SSQStatic uses the separate submission queues at a fixed weight
	// ratio without dynamic control (for ablations).
	SSQStatic
	// DeadlineBaseline uses a block-layer-style read-preferring deadline
	// scheduler (the conventional occupant of the slot the paper's
	// future work targets); it aggravates read congestion and serves as
	// a second ablation baseline.
	DeadlineBaseline
	// SRCDirect replaces the SSQ+TPM pipeline with direct read-rate
	// pacing at the device (nvme.Paced): the demanded data sending rate
	// is applied to read dispatch as a token bucket, no prediction model
	// involved. The ablation that asks "do you need the TPM?".
	SRCDirect
)

// String implements fmt.Stringer using the paper's labels.
func (m Mode) String() string {
	switch m {
	case DCQCNOnly:
		return "DCQCN-Only"
	case DCQCNSRC:
		return "DCQCN-SRC"
	case SSQStatic:
		return "SSQ-Static"
	case DeadlineBaseline:
		return "Deadline"
	case SRCDirect:
		return "SRC-Direct"
	default:
		return "unknown-mode"
	}
}

// Spec describes one experiment setup.
type Spec struct {
	Initiators int
	Targets    int

	SSD              ssd.Config
	DevicesPerTarget int // flash-array width (default 1)

	Mode Mode
	// TPM must be a trained model when Mode is DCQCNSRC.
	TPM *core.TPM
	SRC core.ControllerConfig
	// Ctrl, when Enabled and Mode is DCQCNSRC, routes SRC telemetry and
	// weight directives through the in-band control plane (lossy delayed
	// messaging, epoch-guarded directives, lease liveness, controller
	// failover; see internal/ctrlplane). The zero value keeps the
	// historical direct-call wiring byte-for-byte.
	Ctrl ctrlplane.Config
	// StaticWeight is the fixed write weight for SSQStatic (default 1).
	StaticWeight int

	// Net carries fabric parameters; LinkRate (bits/s) is the host link
	// speed and defaults to Net.DCQCN.LineRate (or 40 Gbps). The paper
	// uses 1 µs link delay.
	Net       netsim.Config
	LinkRate  float64
	LinkDelay sim.Time
	// UseClos builds the paper's full Clos fabric and places initiators
	// and targets on distinct ToRs; otherwise a single-rack topology is
	// used (the paper's small-scale experiments).
	UseClos bool
	Clos    netsim.ClosSpec

	// MetricBucket is the time-series resolution (default 1 ms, as in
	// Figs. 7-10).
	MetricBucket sim.Time
	// Horizon bounds the simulation (default 3x trace duration plus
	// 200 ms of drain).
	Horizon sim.Time
	// TrimFrac is the warm-up/wrap-up trim (default 0.10, Sec. IV-B).
	TrimFrac float64
	// TXQCap bounds in-flight read data per target in bytes (0 uses
	// nvmeof.DefaultTXQCap; negative disables CQ backpressure).
	TXQCap int64

	// Faults, when non-nil, installs the fault schedule into the built
	// cluster (see internal/faults). Its Recovery block fills any of the
	// recovery knobs below the caller left unset. Nil keeps the fabric
	// perfect and all recovery machinery disarmed — the pre-fault
	// behaviour, byte for byte.
	Faults *faults.Schedule
	// Retry arms per-command expiry and retransmission at every
	// initiator, and (via its Timeout) the targets' TXQ credit-leak
	// recovery. The zero value disables timeouts.
	Retry nvmeof.RetryPolicy

	// Guard configures run governance: the liveness watchdog, the
	// conservation auditor, graceful cancellation, and the wall-clock
	// budget (see internal/guard). The zero value disables everything
	// and keeps runs byte-identical to ungoverned output.
	Guard guard.Config

	// Metrics, when non-nil, receives counters/gauges/histograms from
	// every instrumented component and enables engine profiling; the
	// snapshot lands in Result.Metrics. Nil (the default) keeps all hooks
	// no-ops unless Recorder or Board asks for a registry, in which case
	// the run gets a private one (engine profiling stays off).
	Metrics *obs.Registry
	// Trace, when non-nil, records sim-time events (ECN marks, PFC
	// pauses, DCQCN throttle spans, SSD GC, SRC adjustments) for Chrome
	// trace export. The run appears as one trace "process" named after
	// the mode. Nil disables tracing with zero overhead.
	Trace *obs.Tracer
	// Recorder, when non-nil, attaches the flight recorder: periodic
	// sim-clock sampling of the registry, including the recorder-only
	// series each layer registers (queue depth, DCQCN rate/alpha, SRC
	// weight, TXQ credit, in-flight commands), under mode-prefixed tracks
	// so CompareModes legs sharing a recorder stay distinct. Nil records
	// nothing and changes no behaviour.
	Recorder *timeseries.Recorder
	// Board, when non-nil, receives wall-clock-latest copies of the
	// registry snapshot and recorder window every publishEvery of sim
	// time for the live inspector. Publishing runs as ordinary engine
	// events and is read-only.
	Board *live.Board
	// Progress, when non-nil, gets a one-line status report every
	// ProgressEvery of sim time (default 100 ms) during Run.
	Progress      io.Writer
	ProgressEvery sim.Time
}

func (s Spec) withDefaults() Spec {
	if s.Initiators <= 0 {
		s.Initiators = 1
	}
	if s.Targets <= 0 {
		s.Targets = 1
	}
	if s.DevicesPerTarget <= 0 {
		s.DevicesPerTarget = 1
	}
	if s.StaticWeight <= 0 {
		s.StaticWeight = 1
	}
	if s.SSD.Name == "" {
		s.SSD = ssd.ConfigA()
	}
	if s.LinkRate <= 0 {
		if s.Net.DCQCN.LineRate > 0 {
			s.LinkRate = s.Net.DCQCN.LineRate
		} else {
			s.LinkRate = 40e9
		}
	}
	// The NIC line rate must match the host link.
	s.Net.DCQCN.LineRate = s.LinkRate
	if s.LinkDelay <= 0 {
		s.LinkDelay = sim.Microsecond
	}
	if s.MetricBucket <= 0 {
		s.MetricBucket = sim.Millisecond
	}
	if s.TrimFrac <= 0 {
		s.TrimFrac = 0.10
	}
	s.Guard = s.Guard.WithDefaults()
	// A schedule's Recovery block arms any recovery knob the caller left
	// unset; explicit Spec settings win.
	if s.Faults != nil && s.Faults.Recovery != nil {
		r := s.Faults.Recovery
		if !s.Retry.Enabled() && r.Timeout > 0 {
			s.Retry = nvmeof.RetryPolicy{
				Timeout: r.Timeout, MaxRetries: r.MaxRetries,
				BackoffBase: r.BackoffBase, BackoffCap: r.BackoffCap,
			}
		}
		if s.Net.PFCWatchdog <= 0 && r.PFCWatchdog > 0 {
			s.Net.PFCWatchdog = r.PFCWatchdog
		}
		if s.SRC.StaleAfter == 0 {
			s.SRC.StaleAfter = r.StaleAfter
		}
		if s.SRC.FallbackWeight == 0 {
			s.SRC.FallbackWeight = r.FallbackWeight
		}
	}
	return s
}

// TargetNode bundles one storage node's pieces.
type TargetNode struct {
	T    *nvmeof.Target
	Devs []*ssd.Device
	SSQs []*nvme.SSQ // nil entries when Mode is DCQCNOnly
	Ctl  *core.Controller
}

// Cluster is a built, ready-to-run testbed.
type Cluster struct {
	Spec Spec
	Eng  *sim.Engine
	Net  *netsim.Network

	Initiators []*nvmeof.Initiator
	Targets    []*TargetNode

	// Injector is the installed fault schedule (inert when Spec.Faults
	// is nil).
	Injector *faults.Injector

	readBits  *stats.TimeSeries
	writeBits *stats.TimeSeries
	pauses    *stats.TimeSeries

	// Per-target cumulative bit counters feeding the adaptive
	// controllers' measured-throughput observations; nil unless
	// Spec.SRC.Adaptive is armed (so non-adaptive runs pay nothing).
	adaptReadBits  []float64
	adaptWriteBits []float64

	completed int
	failed    int
	total     int

	// Guard state: the in-flight ledger (watchdog only), the fatal
	// verdict (stall or violation), and the graceful-truncation marker.
	flight         map[uint64]flightRec
	guardErr       error
	truncated      bool
	truncateReason string

	// telemetryStalled gates the SRC monitor feed per target (the
	// telemetry-stall fault). Both the direct path and the in-band
	// control plane pass through this same gate (feedTelemetry), so
	// stall faults and channel loss degrade the controller identically.
	telemetryStalled []bool

	// plane is the in-band control plane; nil unless Spec.Ctrl.Enabled
	// with Mode DCQCNSRC.
	plane *ctrlplane.Plane

	// sc is the run's trace scope (nil when Spec.Trace is nil).
	sc *obs.Scope
	// reg is the registry every layer registered with: Spec.Metrics, a
	// private one when only the recorder or board needs it, else nil.
	reg *obs.Registry
}

// New builds a cluster from the spec.
func New(spec Spec) (*Cluster, error) {
	spec = spec.withDefaults()
	if spec.Mode == DCQCNSRC && (spec.TPM == nil || !spec.TPM.Trained()) {
		return nil, fmt.Errorf("cluster: mode %v requires a trained TPM", spec.Mode)
	}
	if err := spec.SSD.Validate(); err != nil {
		return nil, err
	}
	if err := spec.SRC.Validate(); err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	modeL := obs.L("mode", spec.Mode.String())
	reg := spec.Metrics
	if reg != nil {
		eng.EnableProfiling()
		reg.CounterFunc("sim", "events_processed", obs.U64(&eng.Processed), modeL)
		reg.GaugeFunc("sim", "heap_high_water", obs.Max, func() float64 { return float64(eng.HeapHighWater()) }, modeL)
	} else if spec.Recorder != nil || spec.Board != nil {
		reg = obs.NewRegistry()
	}
	// Past this point layers hold registrations: a failed build folds
	// them so the registry keeps nothing of the partial cluster.
	fail := func(err error) (*Cluster, error) {
		reg.Fold()
		return nil, err
	}
	net, err := netsim.NewNetwork(eng, spec.Net)
	if err != nil {
		return fail(err)
	}
	// One trace process per run, named after the mode, so CompareModes
	// runs sharing a tracer land in distinct Chrome processes.
	sc := spec.Trace.Scope(spec.Mode.String())
	net.Instrument(reg, sc, modeL)

	var hosts []*netsim.Node
	need := spec.Initiators + spec.Targets
	if spec.UseClos {
		hosts = netsim.BuildClos(net, spec.Clos)
		if len(hosts) < need {
			return fail(fmt.Errorf("cluster: Clos provides %d hosts, need %d", len(hosts), need))
		}
		// Spread across ToRs: initiators first, then targets from the
		// far end so traffic crosses the fabric.
		sel := make([]*netsim.Node, 0, need)
		sel = append(sel, hosts[:spec.Initiators]...)
		sel = append(sel, hosts[len(hosts)-spec.Targets:]...)
		hosts = sel
	} else {
		hosts = netsim.BuildRack(net, need, spec.LinkRate, spec.LinkDelay)
	}

	c := &Cluster{
		Spec: spec, Eng: eng, Net: net,
		readBits:         stats.NewTimeSeries(spec.MetricBucket),
		writeBits:        stats.NewTimeSeries(spec.MetricBucket),
		pauses:           stats.NewTimeSeries(spec.MetricBucket),
		telemetryStalled: make([]bool, spec.Targets),
		sc:               sc,
		reg:              reg,
	}
	if reg != nil {
		reg.GaugeFunc("cluster", "completed", obs.Probe, func() float64 { return float64(c.completed) }, modeL)
		reg.GaugeFunc("cluster", "failed", obs.Probe, func() float64 { return float64(c.failed) }, modeL)
		reg.GaugeFunc("cluster", "read_bits", obs.Probe, c.readBits.Total, modeL)
		reg.GaugeFunc("cluster", "write_bits", obs.Probe, c.writeBits.Total, modeL)
	}
	if spec.Mode == DCQCNSRC && spec.SRC.Adaptive.Enabled {
		c.adaptReadBits = make([]float64, spec.Targets)
		c.adaptWriteBits = make([]float64, spec.Targets)
	}
	if spec.Mode == DCQCNSRC && spec.Ctrl.Enabled {
		c.plane = ctrlplane.New(eng, spec.Ctrl, spec.Targets, net.SwitchQueuedBytes)
		c.plane.Instrument(reg, modeL)
	}

	for i := 0; i < spec.Initiators; i++ {
		ini := nvmeof.NewInitiator(net, eng, hosts[i])
		ini.OnComplete = func(req trace.Request, readData bool, at sim.Time) {
			if readData {
				c.readBits.Add(at, float64(req.Size)*8)
				if c.adaptReadBits != nil {
					c.adaptReadBits[req.Target] += float64(req.Size) * 8
				}
			}
			c.completed++
			if c.completed+c.failed >= c.total && c.total > 0 {
				eng.Stop()
			}
		}
		if spec.Retry.Enabled() {
			ini.SetRetryPolicy(spec.Retry)
			ini.OnFailed = func(req trace.Request, at sim.Time) {
				c.failed++
				if c.completed+c.failed >= c.total && c.total > 0 {
					eng.Stop()
				}
			}
		}
		ini.Instrument(reg, modeL)
		c.Initiators = append(c.Initiators, ini)
	}

	for tIdx := 0; tIdx < spec.Targets; tIdx++ {
		node := hosts[spec.Initiators+tIdx]
		tn := &TargetNode{}
		units := make([]nvmeof.Unit, 0, spec.DevicesPerTarget)
		for d := 0; d < spec.DevicesPerTarget; d++ {
			var arb nvme.Arbiter
			switch spec.Mode {
			case DCQCNOnly:
				arb = nvme.NewMultiRR(4)
				tn.SSQs = append(tn.SSQs, nil)
			case DCQCNSRC:
				ssq := nvme.NewSSQ(1, 1)
				tn.SSQs = append(tn.SSQs, ssq)
				arb = ssq
			case SSQStatic:
				ssq := nvme.NewSSQ(1, spec.StaticWeight)
				tn.SSQs = append(tn.SSQs, ssq)
				arb = ssq
			case DeadlineBaseline:
				arb = nvme.NewDeadline(0)
				tn.SSQs = append(tn.SSQs, nil)
			case SRCDirect:
				arb = nvme.NewPaced(eng, 0)
				tn.SSQs = append(tn.SSQs, nil)
			default:
				return fail(fmt.Errorf("cluster: unknown mode %d", spec.Mode))
			}
			dev, err := ssd.New(eng, spec.SSD, arb)
			if err != nil {
				return fail(err)
			}
			dev.Trace = sc
			dev.TraceName = fmt.Sprintf("t%d/d%d", tIdx, d)
			dev.Instrument(reg, modeL)
			if ssq := tn.SSQs[d]; ssq != nil {
				ssq.Instrument(reg, modeL)
			}
			tn.Devs = append(tn.Devs, dev)
			units = append(units, nvmeof.Unit{Dev: dev, Arb: arb})
		}
		tn.T = nvmeof.NewTarget(net, node, units, spec.TXQCap)
		tn.T.Instrument(reg, modeL)
		if spec.Retry.Enabled() {
			tn.T.SetCreditTimeout(spec.Retry.Timeout)
		}
		if spec.Mode == SRCDirect {
			// Wire pacing wake-ups and the rate listener: every DCQCN
			// rate change is applied directly as the per-device read
			// dispatch budget.
			paced := make([]*nvme.Paced, 0, len(units))
			for d, u := range units {
				pa := u.Arb.(*nvme.Paced)
				dev := tn.Devs[d]
				pa.Kicker = dev.Kick
				paced = append(paced, pa)
			}
			target := tn.T
			share := float64(len(units))
			tn.T.OnReadRate = func(_ *netsim.Flow, _, _ float64) {
				per := target.ReadSendRate() / share
				for _, pa := range paced {
					pa.SetReadRate(per)
				}
			}
		}
		wIdx := tIdx
		tn.T.OnWriteComplete = func(req trace.Request, at sim.Time) {
			c.writeBits.Add(at, float64(req.Size)*8)
			if c.adaptWriteBits != nil {
				c.adaptWriteBits[wIdx] += float64(req.Size) * 8
			}
		}

		if spec.Mode == DCQCNSRC {
			srcCfg := spec.SRC
			if srcCfg.Scale <= 0 {
				srcCfg.Scale = float64(spec.DevicesPerTarget)
			}
			group := make(core.SSQGroup, 0, len(tn.SSQs))
			for _, s := range tn.SSQs {
				group = append(group, s)
			}
			target := tn.T
			tIdx := tIdx
			mk := func(sink core.WeightSink) *core.Controller {
				ctl := core.NewController(srcCfg, spec.TPM, sink)
				ctl.Instrument(reg, sc, fmt.Sprintf("t%d", tIdx), modeL)
				return ctl
			}
			if c.plane != nil {
				// In-band: the controller drives a plane directive sink;
				// the agent owns the real SSQ group.
				tn.Ctl = c.plane.Register(tIdx, group, mk)
			} else {
				tn.Ctl = mk(group)
			}
			// The weight actually applied, whichever controller incarnation
			// set it.
			if reg != nil {
				reg.GaugeFunc("core", "weight_ratio", obs.Probe, group.WeightRatio, modeL, obs.L("target", fmt.Sprintf("t%d", tIdx)))
			}
			tn.T.OnCommandArrive = func(req trace.Request, at sim.Time) {
				c.feedTelemetry(tIdx, req, at)
			}
			tn.T.OnReadRate = func(_ *netsim.Flow, _, _ float64) {
				c.feedRate(tIdx, target.ReadSendRate())
			}
		}
		c.Targets = append(c.Targets, tn)
	}

	if spec.Faults != nil {
		b := faults.Binding{
			Eng: eng, Net: net, Scope: sc,
			StallTelemetry: func(t int, stalled bool) { c.telemetryStalled[t] = stalled },
		}
		if c.plane != nil {
			b.Ctrl = c.plane
		}
		b.Initiators = append(b.Initiators, hosts[:spec.Initiators]...)
		for _, tn := range c.Targets {
			b.Targets = append(b.Targets, tn.T.Node)
			b.TargetDevices = append(b.TargetDevices, tn.Devs)
		}
		inj, err := faults.Install(spec.Faults, b)
		if err != nil {
			return fail(err)
		}
		inj.Instrument(reg)
		c.Injector = inj
	}
	return c, nil
}

// feedTelemetry routes one monitored request to target t's SRC
// controller: through the in-band control plane's publisher when one is
// enabled, directly into the monitor otherwise. Both paths share the
// telemetry-stall gate, so the telemetry-stall fault and in-band channel
// loss starve the controller through the same staleness watchdog.
func (c *Cluster) feedTelemetry(t int, req trace.Request, at sim.Time) {
	if c.telemetryStalled[t] {
		return
	}
	if c.plane != nil {
		c.plane.Publisher(t).Record(req, at)
		return
	}
	c.Targets[t].Ctl.Monitor.Record(req, at)
}

// activeCtl returns target t's currently live controller: the plane's
// active incarnation when the control plane is on (nil while the
// controller process is down), the fixed direct controller otherwise.
func (c *Cluster) activeCtl(t int) *core.Controller {
	if c.plane != nil {
		return c.plane.Active(t)
	}
	return c.Targets[t].Ctl
}

// feedRate routes one demanded-rate event to target t's SRC controller
// (in-band when the plane is enabled, direct otherwise). Rate events are
// deliberately not gated by telemetryStalled, matching the historical
// direct wiring: a stalled monitor feed still hears rate changes and
// degrades via staleness, not silence.
func (c *Cluster) feedRate(t int, rate float64) {
	if c.plane != nil {
		c.plane.Publisher(t).RateEvent(rate)
		return
	}
	c.Targets[t].Ctl.OnRateEvent(c.Eng.Now(), rate)
}
