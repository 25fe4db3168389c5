package harness

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/guard"
	"srcsim/internal/nvme"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/stats"
	"srcsim/internal/trace"
)

// Fig9Config returns the SSD-B variant used for the dynamic-control
// experiment: a 3-channel array whose read range (~2.5-11 Gbps across
// weight ratios) spans the paper's demanded rates (10 → 6 → 3 → 6 →
// 10 Gbps).
func Fig9Config() ssd.Config {
	cfg := ssd.ConfigB()
	cfg.Channels = 3
	cfg.DiesPerChannel = 4
	return cfg
}

// RateEvent is one synthetic congestion notification: at time At the
// network demands DemandGbps of read data.
type RateEvent struct {
	At         sim.Time
	DemandGbps float64
}

// parseEvents parses a comma-separated list of ms:Gbps congestion
// events, e.g. "60:6,100:3"; the empty string yields nil (the paper's
// default schedule).
func parseEvents(s string) ([]RateEvent, error) {
	if s == "" {
		return nil, nil
	}
	var out []RateEvent
	for _, part := range strings.Split(s, ",") {
		msStr, gbpsStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("harness: bad event %q (want ms:Gbps)", part)
		}
		ms, err := strconv.ParseFloat(msStr, 64)
		if err != nil {
			return nil, fmt.Errorf("harness: bad event time %q: %v", msStr, err)
		}
		gbps, err := strconv.ParseFloat(gbpsStr, 64)
		if err != nil {
			return nil, fmt.Errorf("harness: bad event rate %q: %v", gbpsStr, err)
		}
		out = append(out, RateEvent{
			At:         sim.Time(ms * float64(sim.Millisecond)),
			DemandGbps: gbps,
		})
	}
	return out, nil
}

// DefaultFig9Events mirrors the paper's sequence: two pause events
// tightening the demand, then two retrieval events releasing it.
func DefaultFig9Events() []RateEvent {
	return []RateEvent{
		{At: 60 * sim.Millisecond, DemandGbps: 6},
		{At: 100 * sim.Millisecond, DemandGbps: 3},
		{At: 140 * sim.Millisecond, DemandGbps: 6},
		{At: 180 * sim.Millisecond, DemandGbps: 10},
	}
}

// Fig9Event reports how SRC handled one synthetic congestion event.
type Fig9Event struct {
	At            sim.Time
	DemandGbps    float64
	AppliedW      int
	ConvergeDelay sim.Time // -1 if the segment never settled
}

// Fig9Result carries the runtime adjustment timeline.
type Fig9Result struct {
	ReadGbps  []float64 // per ms
	WriteGbps []float64
	Events    []Fig9Event
}

// AverageConvergence returns the mean convergence delay over the events
// that settled (the paper reports ~7.3 ms over a long event trace).
func (r *Fig9Result) AverageConvergence() sim.Time {
	var sum sim.Time
	n := 0
	for _, e := range r.Events {
		if e.ConvergeDelay >= 0 {
			sum += e.ConvergeDelay
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / sim.Time(n)
}

// Fig9DynamicControl reproduces Fig. 9: a saturating workload on the
// Fig9Config device, with synthetic congestion events injected into the
// SRC controller. It measures the per-millisecond read/write throughput
// and, per event, the delay until the read throughput settles within 15%
// of its new steady level. tpm must be trained on the same device config
// (devrun.TrainTPM(Fig9Config(), ...)).
func Fig9DynamicControl(tpm *core.TPM, events []RateEvent, horizon sim.Time, seed uint64) (*Fig9Result, error) {
	if len(events) == 0 {
		events = DefaultFig9Events()
	}
	if horizon <= 0 {
		horizon = events[len(events)-1].At + 60*sim.Millisecond
	}
	cfg := Fig9Config()

	// Saturating symmetric workload for the full horizon.
	count := int(horizon/(8*sim.Microsecond)) + 1
	spec := devrun.WorkloadSpec{
		InterArrival: 8 * sim.Microsecond,
		MeanSize:     32 << 10,
		Count:        count,
		Seed:         seed,
	}
	tr, err := spec.Trace()
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	ssq := nvme.NewSSQ(1, 1)
	dev, err := ssd.New(eng, cfg, ssq)
	if err != nil {
		return nil, err
	}
	var span uint64
	for _, r := range tr.Requests {
		if r.End() > span {
			span = r.End()
		}
	}
	dev.Precondition(span)

	ctl := core.NewController(core.ControllerConfig{}, tpm, ssq)

	bucket := sim.Millisecond
	readBits := stats.NewTimeSeries(bucket)
	writeBits := stats.NewTimeSeries(bucket)
	dev.OnComplete = func(c *nvme.Command) {
		if c.Op == trace.Read {
			readBits.Add(eng.Now(), float64(c.Size)*8)
		} else {
			writeBits.Add(eng.Now(), float64(c.Size)*8)
		}
	}
	for _, r := range tr.Requests {
		r := r
		eng.Schedule(r.Arrival, func() {
			ssq.Submit(&nvme.Command{ID: r.ID, Op: r.Op, LBA: r.LBA, Size: r.Size, Submitted: r.Arrival})
			dev.Kick()
			ctl.Monitor.Record(trace.Request{Op: r.Op, LBA: r.LBA, Size: r.Size}, eng.Now())
		})
	}
	for _, ev := range events {
		ev := ev
		eng.Schedule(ev.At, func() {
			ctl.OnRateEvent(eng.Now(), ev.DemandGbps*1e9)
		})
	}
	// Conservation auditor on the single-device pipeline: read-only, so
	// the figure is unperturbed; a violation aborts the experiment.
	var auditErr error
	stopAudit := eng.Ticker(sim.Millisecond, func() {
		if auditErr != nil {
			return
		}
		if vs := guard.Audit(ssq, dev); len(vs) > 0 {
			auditErr = &guard.ViolationError{At: eng.Now(), Violations: vs}
			eng.Stop()
		}
	})
	eng.Run(horizon)
	stopAudit()
	if auditErr == nil {
		if vs := guard.Audit(ssq, dev); len(vs) > 0 {
			auditErr = &guard.ViolationError{At: eng.Now(), Violations: vs}
		}
	}
	if auditErr != nil {
		return nil, auditErr
	}

	res := &Fig9Result{}
	toGbps := func(ts *stats.TimeSeries) []float64 {
		rates := ts.Rate()
		out := make([]float64, len(rates))
		for i, r := range rates {
			out[i] = r / 1e9
		}
		return out
	}
	res.ReadGbps = toGbps(readBits)
	res.WriteGbps = toGbps(writeBits)

	// Per-event applied weights from the controller log.
	appliedW := func(at sim.Time) int {
		w := 0
		for _, e := range ctl.Events {
			if e.At == at {
				w = e.WeightRatio
			}
		}
		return w
	}

	for i, ev := range events {
		segEnd := horizon
		if i+1 < len(events) {
			segEnd = events[i+1].At
		}
		res.Events = append(res.Events, Fig9Event{
			At:            ev.At,
			DemandGbps:    ev.DemandGbps,
			AppliedW:      appliedW(ev.At),
			ConvergeDelay: convergence(res.ReadGbps, bucket, ev.At, segEnd),
		})
	}
	return res, nil
}

// convergence finds the delay from segStart until the read series stays
// within 15% of the segment's steady level for two consecutive buckets.
// The steady level is the mean over the last quarter of the segment.
func convergence(series []float64, bucket, segStart, segEnd sim.Time) sim.Time {
	lo := int(segStart / bucket)
	hi := int(segEnd / bucket)
	if hi > len(series) {
		hi = len(series)
	}
	if hi-lo < 4 {
		return -1
	}
	tail := series[lo+(hi-lo)*3/4 : hi]
	steady := stats.Mean(tail)
	band := 0.15 * steady
	if band < 0.2 {
		band = 0.2
	}
	run := 0
	for i := lo; i < hi; i++ {
		if math.Abs(series[i]-steady) <= band {
			run++
			if run >= 2 {
				return sim.Time(i-1)*bucket - segStart
			}
		} else {
			run = 0
		}
	}
	return -1
}

// FprintFig9 renders the dynamic-adjustment timeline and event table.
func FprintFig9(w io.Writer, res *Fig9Result) {
	fmt.Fprintln(w, "Fig. 9: dynamic throughput adjustment under SRC")
	fprintSeries(w, "read", res.ReadGbps)
	fprintSeries(w, "write", res.WriteGbps)
	fmt.Fprintf(w, "%10s %10s %4s %12s\n", "event", "demand", "w", "convergence")
	for _, e := range res.Events {
		conv := "n/a"
		if e.ConvergeDelay >= 0 {
			conv = e.ConvergeDelay.String()
		}
		fmt.Fprintf(w, "%10v %8.1fG %4d %12s\n", e.At, e.DemandGbps, e.AppliedW, conv)
	}
	if avg := res.AverageConvergence(); avg >= 0 {
		fmt.Fprintf(w, "average control delay: %v\n", avg)
	}
}
