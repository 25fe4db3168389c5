package cluster

import (
	"fmt"

	"srcsim/internal/netsim"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// BackgroundFlow describes cross traffic that shares the fabric with the
// storage workload: a persistent sender pushing fixed-size messages at a
// target offered rate between two extra hosts. Background traffic
// tightens the congestion regime without touching the storage stack —
// useful for studying SRC under contended fabrics (the paper's full Clos
// carries 256 hosts of such traffic).
type BackgroundFlow struct {
	// RateGbps is the offered rate; MsgBytes the message size
	// (default 1 MiB).
	RateGbps float64
	MsgBytes int
}

// AddBackground installs background flows on extra rack hosts. Call
// after New and before Run. Each flow gets its own source and sink host
// appended to the fabric, so storage hosts keep their link capacity —
// only the shared switch is contended.
//
// Only rack topologies support background flows (the Clos builder wires
// hosts at construction time).
func (c *Cluster) AddBackground(flows []BackgroundFlow) error {
	if c.Spec.UseClos {
		return fmt.Errorf("cluster: background flows require the rack topology")
	}
	for i, bf := range flows {
		if bf.RateGbps <= 0 {
			return fmt.Errorf("cluster: background flow %d has no rate", i)
		}
		msg := bf.MsgBytes
		if msg <= 0 {
			msg = 1 << 20
		}
		src := c.Net.AddHost(fmt.Sprintf("bg-src%d", i))
		dst := c.Net.AddHost(fmt.Sprintf("bg-dst%d", i))
		// The rack's switch is node 0 (BuildRack adds it first).
		var tor *netsim.Node
		for _, n := range c.Net.Nodes() {
			if n.IsSwitch {
				tor = n
				break
			}
		}
		if tor == nil {
			return fmt.Errorf("cluster: no switch found for background traffic")
		}
		c.Net.Connect(src, tor, c.Spec.LinkRate, linkDelay)
		c.Net.Connect(dst, tor, c.Spec.LinkRate, linkDelay)
		c.Net.ComputeRoutes()

		flow := c.Net.NewFlow(src, dst)
		interval := sim.Time(float64(msg*8) / (bf.RateGbps * 1e9) * float64(sim.Second))
		if interval < 1 {
			interval = 1
		}
		// Paced open-loop sender for the lifetime of the run.
		var tick func()
		tick = func() {
			flow.Send(msg, nil)
			c.Eng.After(interval, tick)
		}
		c.Eng.After(sim.Time(i+1), tick)
	}
	return nil
}

// ClosedLoopSpec drives the cluster like fio with a bounded iodepth:
// each initiator keeps QueueDepth requests outstanding per target,
// resubmitting on completion, for the given duration. Request parameters
// are sampled from the template trace's empirical distribution.
type ClosedLoopSpec struct {
	// QueueDepth is the per-initiator, per-target outstanding bound.
	QueueDepth int
	// Duration of the measured run.
	Duration sim.Time
	// ReadFraction of issued requests (0..1).
	ReadFraction float64
	// SizeBytes of each request (block-aligned by the caller).
	SizeBytes int
	// AddressSpace for generated LBAs.
	AddressSpace uint64
	// Seed drives the request generator.
	Seed uint64
}

func (s ClosedLoopSpec) withDefaults() ClosedLoopSpec {
	if s.QueueDepth <= 0 {
		s.QueueDepth = 32
	}
	if s.Duration <= 0 {
		s.Duration = 50 * sim.Millisecond
	}
	if s.ReadFraction <= 0 {
		s.ReadFraction = 0.5
	}
	if s.SizeBytes <= 0 {
		s.SizeBytes = 16 << 10
	}
	if s.AddressSpace == 0 {
		s.AddressSpace = 2 << 30
	}
	return s
}

// ClosedLoopResult summarises a closed-loop run.
type ClosedLoopResult struct {
	ReadGbps, WriteGbps float64
	ReadIOPS, WriteIOPS float64
	Completed           int
}

// RunClosedLoop drives the cluster closed-loop (see ClosedLoopSpec) and
// reports sustained throughput. It can be called once per cluster, like
// Run.
func (c *Cluster) RunClosedLoop(spec ClosedLoopSpec) (*ClosedLoopResult, error) {
	spec = spec.withDefaults()
	rng := sim.NewRNG(spec.Seed ^ 0xc105ed)
	for _, t := range c.Targets {
		for _, dev := range t.Devs {
			dev.Precondition(spec.AddressSpace)
		}
	}

	var readBytes, writeBytes int64
	var completed int
	nextID := uint64(0)

	newReq := func() trace.Request {
		op := trace.Read
		if rng.Float64() >= spec.ReadFraction {
			op = trace.Write
		}
		id := nextID
		nextID++
		blocks := spec.AddressSpace / 4096
		return trace.Request{
			ID: id, Op: op,
			LBA:  uint64(rng.Intn(int(blocks))) * 4096,
			Size: spec.SizeBytes,
		}
	}

	// c.total stays 0 so the trace-run completion stop never triggers;
	// guard Run from being mixed with RunClosedLoop.
	if c.completed != 0 {
		return nil, fmt.Errorf("cluster: RunClosedLoop on a used cluster")
	}

	for ii, ini := range c.Initiators {
		ini := ini
		ini.OnComplete = func(req trace.Request, readData bool, at sim.Time) {
			if at <= spec.Duration {
				completed++
				if readData {
					readBytes += int64(req.Size)
				} else {
					writeBytes += int64(req.Size)
				}
			}
			// Resubmit to keep the queue depth (stop issuing after the
			// horizon so the run drains).
			if at < spec.Duration {
				tgt := c.Targets[int(req.ID)%len(c.Targets)]
				r := newReq()
				ini.Submit(r, tgt.T.Node)
			}
		}
		// Prime the pipeline.
		for q := 0; q < spec.QueueDepth; q++ {
			for ti := range c.Targets {
				r := newReq()
				_ = ii
				c.Eng.Schedule(sim.Time(q+ti+1), func() {
					ini.Submit(r, c.Targets[ti%len(c.Targets)].T.Node)
				})
			}
		}
	}

	c.Eng.Run(spec.Duration + 100*sim.Millisecond)

	secs := spec.Duration.Seconds()
	res := &ClosedLoopResult{
		ReadGbps:  float64(readBytes*8) / secs / 1e9,
		WriteGbps: float64(writeBytes*8) / secs / 1e9,
		Completed: completed,
	}
	if secs > 0 {
		res.ReadIOPS = float64(readBytes) / float64(spec.SizeBytes) / secs
		res.WriteIOPS = float64(writeBytes) / float64(spec.SizeBytes) / secs
	}
	return res, nil
}
