package cluster

import (
	"fmt"
	"sort"

	"srcsim/internal/core"
	"srcsim/internal/ctrlplane"
	"srcsim/internal/guard"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
	"srcsim/internal/stats"
	"srcsim/internal/trace"
)

// publishEvery is the sim-time period at which a run hands the live
// inspector (Spec.Board) fresh copies of its snapshot and recorder.
const publishEvery = 10 * sim.Millisecond

// Assign routes a request to (initiator, target) indexes. The default
// policy stripes requests round-robin over both sets, which splits the
// workload evenly across targets as in the paper's experiments.
type Assign func(req trace.Request, idx int, initiators, targets int) (int, int)

// DefaultAssign is the round-robin policy.
func DefaultAssign(req trace.Request, idx int, initiators, targets int) (int, int) {
	return idx % initiators, idx % targets
}

// Result is the record of one run: its scalar ledger (the embedded
// Summary, which is also its JSON form), the raw per-bucket series and
// the SRC adjustment log.
type Result struct {
	Summary

	// Per-bucket series in Gbps (reads measured at initiators, writes at
	// targets) and raw pause counts per bucket.
	ReadGbps  []float64
	WriteGbps []float64
	Pauses    []float64

	// WeightEvents merges all SRC adjustments (empty unless DCQCN-SRC).
	WeightEvents []core.AdjustEvent
}

// Summary is a run's scalar ledger. Its JSON field order and omitempty
// keys are part of every digest, so fields are only ever appended.
type Summary struct {
	Mode       Mode    `json:"mode"`
	DurationMs float64 `json:"duration_ms"`

	// Steady-state aggregates (Gbps) over the active window: the trace's
	// arrival span with the first and last trimFrac removed (Sec. IV-B's
	// warm-up/wrap-up trimming). The post-arrival drain tail is excluded
	// so runs of different lengths compare like the paper's timelines.
	MeanReadGbps   float64 `json:"read_gbps"`
	MeanWriteGbps  float64 `json:"write_gbps"`
	AggregatedGbps float64 `json:"aggregated_gbps"`

	Completed      int    `json:"completed"`
	Submitted      int    `json:"submitted"`
	TotalCNPs      uint64 `json:"cnps"`
	TotalECNMarks  uint64 `json:"ecn_marks"`
	TotalPFCPauses uint64 `json:"pfc_pauses"`

	// End-to-end request latency percentiles (submission at the
	// initiator to completion at the initiator), in milliseconds.
	ReadLatencyP50Ms  float64 `json:"read_latency_p50_ms"`
	ReadLatencyP99Ms  float64 `json:"read_latency_p99_ms"`
	WriteLatencyP50Ms float64 `json:"write_latency_p50_ms"`
	WriteLatencyP99Ms float64 `json:"write_latency_p99_ms"`
	// WeightEventCount is len(Result.WeightEvents).
	WeightEventCount int `json:"weight_events"`

	// Truncated marks a run cut short by graceful cancellation (a
	// guard.Stopper fired or the wall budget ran out) rather than by
	// completing its workload; the metric and fault ledgers cover the
	// portion that ran. TruncateReason says why. Both are omitted on
	// complete runs.
	Truncated      bool   `json:"truncated,omitempty"`
	TruncateReason string `json:"truncate_reason,omitempty"`

	// Failed counts requests abandoned after exhausting their retry
	// budget; the accounting invariant under faults is
	// Completed + Failed == Submitted. It and the fault-injection and
	// recovery counters are omitted when zero (fault-free runs).
	Failed           int    `json:"failed,omitempty"`
	FaultsInjected   uint64 `json:"faults_injected,omitempty"`
	Retries          uint64 `json:"retries,omitempty"`
	Timeouts         uint64 `json:"timeouts,omitempty"`
	StaleResponses   uint64 `json:"stale_responses,omitempty"`
	DupsDropped      uint64 `json:"dups_dropped,omitempty"`
	DroppedPackets   uint64 `json:"dropped_packets,omitempty"`
	CorruptedPackets uint64 `json:"corrupted_packets,omitempty"`
	RouteDrops       uint64 `json:"route_drops,omitempty"`
	WatchdogTrips    uint64 `json:"watchdog_trips,omitempty"`
	ForcedPauses     uint64 `json:"forced_pauses,omitempty"`
	LinkDowns        uint64 `json:"link_downs,omitempty"`

	// Degradation-ladder ledger, omitted (empty/zero) unless a controller
	// left Predictive, which takes Spec.SRC.Adaptive or a firing
	// StaleAfter watchdog: every per-target ladder transition merged in
	// time order, the retraining counters summed across targets (adaptive
	// runs only), and the run's time-to-recover — from the first severe
	// descent (ModelFree or Static: the model is out of the loop) until
	// every target that left Predictive is back on it (AdaptRecovered
	// false when the run ends still degraded).
	Ladder         []LadderStep `json:"ladder,omitempty"`
	Retrains       uint64       `json:"adapt_retrains,omitempty"`
	Promotions     uint64       `json:"adapt_promotions,omitempty"`
	Rejections     uint64       `json:"adapt_rejections,omitempty"`
	AdaptRecovered bool         `json:"adapt_recovered,omitempty"`
	AdaptRecoverMs float64      `json:"adapt_recover_ms,omitempty"`

	// Ctrl is the in-band control plane's message/liveness ledger; nil
	// (and omitted) unless Spec.Ctrl was enabled.
	Ctrl *ctrlplane.Ledger `json:"ctrl,omitempty"`
}

// LadderStep is one adaptive-ladder transition in the run ledger,
// timestamped in run milliseconds.
type LadderStep struct {
	Target int     `json:"target"`
	AtMs   float64 `json:"at_ms"`
	From   string  `json:"from"`
	To     string  `json:"to"`
	Reason string  `json:"reason"`
}

// Run drives the trace through the cluster and collects metrics. It can
// be called once per cluster. However it ends, it folds the layers'
// read-through series into the registry, which then holds no reference
// to the cluster.
func (c *Cluster) Run(tr *trace.Trace, assign Assign) (*Result, error) {
	defer c.reg.Fold()
	if tr.Len() == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	if assign == nil {
		assign = DefaultAssign
	}
	spec := c.Spec
	c.total = tr.Len()

	// MQSim-style preconditioning: install the workload footprint's
	// mapping entries so runs measure steady-state behaviour.
	var span uint64
	for _, r := range tr.Requests {
		if r.End() > span {
			span = r.End()
		}
	}
	for _, t := range c.Targets {
		for _, dev := range t.Devs {
			dev.Precondition(span)
		}
	}

	for idx, r := range tr.Requests {
		r := r
		iniIdx, tgtIdx := assign(r, idx, len(c.Initiators), len(c.Targets))
		ini := c.Initiators[iniIdx]
		tgt := c.Targets[tgtIdx]
		r.Initiator, r.Target = iniIdx, tgtIdx
		c.Eng.Schedule(r.Arrival, func() {
			if c.flight != nil {
				c.flight[r.ID] = r
			}
			ini.Submit(r, tgt.T.Node)
		})
	}

	// Arm the governance hooks (no-op and event-free when Spec.Guard is
	// the zero config). Must precede the first event so the in-flight
	// ledger exists before any submission fires.
	unguard := c.installGuard()

	// In-band control plane: telemetry flushes, heartbeats, lease checks
	// and the standby watchdog run as ordinary engine tickers. Started
	// before the first submission so leases are live from t=0.
	stopPlane := func() {}
	if c.plane != nil {
		stopPlane = c.plane.Start()
	}

	// Flight recorder: the registry sampled on the sim clock. Started
	// before the first model event so the t=0 state is in the timeline.
	stopRecorder := spec.Recorder.Start(c.Eng, c.reg)
	// Live-inspector publishing: copies of the latest snapshot and
	// recorder window, handed to the board for the HTTP goroutine. The
	// engine thread only ever writes copies, never shares live state.
	publish := func() {
		spec.Board.PublishSnapshot(c.reg.Snapshot())
		if spec.Recorder != nil {
			spec.Board.PublishSeries(spec.Recorder.Dump(2048))
		}
	}
	stopPublish := func() {}
	if spec.Board != nil {
		stopPublish = c.Eng.Ticker(publishEvery, publish)
	}

	// Pause-number sampling (Fig. 8): delta of CNPs received by targets
	// per metric bucket.
	var lastCNPs uint64
	stopPause := c.Eng.Ticker(metricBucket, func() {
		var cur uint64
		for _, t := range c.Targets {
			cur += t.T.Node.NIC.CNPsReceived
		}
		c.pauses.Add(c.Eng.Now()-1, float64(cur-lastCNPs))
		lastCNPs = cur
	})

	// Adaptive observation feed: every ObserveEvery, hand each target's
	// measured read/write throughput over the elapsed interval to its
	// controller (training samples + shadow-prediction scoring + ladder
	// transitions + due retrains). Absent entirely on non-adaptive runs,
	// so their event sequence is unchanged.
	stopObserve := func() {}
	if c.adaptReadBits != nil {
		every := c.Targets[0].Ctl.Cfg.Adaptive.ObserveEvery
		secs := float64(every) / 1e9
		arrivalEnd := tr.Duration()
		lastR := make([]float64, len(c.Targets))
		lastW := make([]float64, len(c.Targets))
		stopObserve = c.Eng.Ticker(every, func() {
			now := c.Eng.Now()
			if now >= arrivalEnd || c.completed+c.failed >= c.total {
				// The arrival span has ended (or every request is already
				// accounted): the remaining drain carries no signal about
				// system health — throughput winds down to zero and
				// telemetry goes legitimately silent as the finite trace
				// runs out, which is exactly the signature of degradation.
				// Freeze the ladder instead of thrashing it against that
				// phantom. This mirrors the measurement methodology: all
				// summary metrics cover the (trimmed) arrival span too.
				for i := range c.Targets {
					if ctl := c.activeCtl(i); ctl != nil {
						ctl.FreezeAdaptation()
					}
				}
				return
			}
			for i := range c.Targets {
				dr := c.adaptReadBits[i] - lastR[i]
				dw := c.adaptWriteBits[i] - lastW[i]
				lastR[i], lastW[i] = c.adaptReadBits[i], c.adaptWriteBits[i]
				// Observations address the live controller incarnation; none
				// while the controller process is down (crash, pre-failover).
				if ctl := c.activeCtl(i); ctl != nil {
					ctl.Observe(now, dr/secs, dw/secs)
				}
			}
		})
	}

	// Periodic progress line (stderr by convention). Pure reporting: it
	// reads counters but never mutates sim state, so it cannot perturb
	// determinism of the run itself.
	stopProgress := func() {}
	if spec.Progress != nil {
		every := spec.ProgressEvery
		if every <= 0 {
			every = 100 * sim.Millisecond
		}
		stopProgress = c.Eng.Ticker(every, func() {
			fmt.Fprintf(spec.Progress,
				"srcsim: [%s] t=%.0fms %d/%d done events=%d heap=%d cnps=%d\n",
				spec.Mode, c.Eng.Now().Millis(), c.completed, c.total,
				c.Eng.Processed, c.Eng.HeapHighWater(), c.Net.CNPsSent)
		})
	}

	horizon := spec.Horizon
	if horizon <= 0 {
		horizon = 3*tr.Duration() + 200*sim.Millisecond
	}
	if st := spec.Guard.Stop; st != nil && st.Stopped() {
		// Cancellation fired before this run started (e.g. a SIGINT during
		// an earlier CompareModes leg): drain immediately with an empty
		// partial result instead of simulating work nobody will read.
		c.truncated = true
		c.truncateReason = st.Reason()
	} else {
		c.Eng.Run(horizon)
	}
	stopPause()
	stopObserve()
	stopProgress()
	stopRecorder() // flushes one final sample at drain time
	stopPublish()
	stopPlane()
	unguard()
	// Always audit once at drain: a leak that emerged after the last
	// periodic check still fails the run.
	if spec.Guard.Audit && c.guardErr == nil {
		if vs := c.auditAll(); len(vs) > 0 {
			c.guardErr = &guard.ViolationError{At: c.Eng.Now(), Violations: vs}
		}
	}
	if c.guardErr != nil {
		return nil, c.guardErr
	}
	res := &Result{Summary: Summary{
		Mode:           spec.Mode,
		DurationMs:     c.Eng.Now().Millis(),
		Completed:      c.completed,
		Failed:         c.failed,
		Submitted:      tr.Len(),
		Truncated:      c.truncated,
		TruncateReason: c.truncateReason,
		TotalECNMarks:  c.Net.ECNMarks,
		TotalPFCPauses: c.Net.PFCPauses,

		DroppedPackets:   c.Net.DroppedPackets,
		CorruptedPackets: c.Net.CorruptedPackets,
		RouteDrops:       c.Net.RouteDrops,
		WatchdogTrips:    c.Net.WatchdogTrips,
		ForcedPauses:     c.Net.ForcedPauses,
		LinkDowns:        c.Net.LinkDowns,
	}}
	for _, ini := range c.Initiators {
		res.Retries += ini.Retries
		res.Timeouts += ini.Timeouts
		res.StaleResponses += ini.StaleResponses
	}
	for _, t := range c.Targets {
		res.DupsDropped += t.T.DupsDropped
	}
	if c.Injector != nil {
		res.FaultsInjected = c.Injector.Injected
	}
	toGbps := func(ts *stats.TimeSeries) []float64 {
		rates := ts.Rate()
		out := make([]float64, len(rates))
		for i, r := range rates {
			out[i] = r / 1e9
		}
		return out
	}
	res.ReadGbps = toGbps(c.readBits)
	res.WriteGbps = toGbps(c.writeBits)
	res.Pauses = c.pauses.Sums()

	// Align series lengths for aggregate math.
	n := len(res.ReadGbps)
	if len(res.WriteGbps) > n {
		n = len(res.WriteGbps)
	}
	pad := func(xs []float64) []float64 {
		for len(xs) < n {
			xs = append(xs, 0)
		}
		return xs
	}
	res.ReadGbps = pad(res.ReadGbps)
	res.WriteGbps = pad(res.WriteGbps)

	// Active measurement window: the trimmed arrival span.
	lo := int(sim.Time(float64(tr.Duration())*trimFrac) / metricBucket)
	hi := int(sim.Time(float64(tr.Duration())*(1-trimFrac)) / metricBucket)
	if hi > n {
		hi = n
	}
	window := func(xs []float64) []float64 {
		if lo >= hi || lo >= len(xs) {
			return xs
		}
		return xs[lo:hi]
	}
	res.MeanReadGbps = stats.Mean(window(res.ReadGbps))
	res.MeanWriteGbps = stats.Mean(window(res.WriteGbps))
	agg := make([]float64, n)
	for i := range agg {
		agg[i] = res.ReadGbps[i] + res.WriteGbps[i]
	}
	res.AggregatedGbps = stats.Mean(window(agg))

	res.ReadLatencyP50Ms = stats.Percentile(c.readLats, 50)
	res.ReadLatencyP99Ms = stats.Percentile(c.readLats, 99)
	res.WriteLatencyP50Ms = stats.Percentile(c.writeLats, 50)
	res.WriteLatencyP99Ms = stats.Percentile(c.writeLats, 99)

	for tIdx, t := range c.Targets {
		res.TotalCNPs += t.T.Node.NIC.CNPsReceived
		// Under the control plane a target may have seen several controller
		// incarnations (failover/restart re-seed fresh ones); merge every
		// incarnation's ledgers in succession order.
		ctls := []*core.Controller{t.Ctl}
		if c.plane != nil {
			ctls = c.plane.Controllers(tIdx)
		}
		for _, ctl := range ctls {
			if ctl == nil {
				continue
			}
			res.WeightEvents = append(res.WeightEvents, ctl.Events...)
			for _, lt := range ctl.Ladder() {
				res.Ladder = append(res.Ladder, LadderStep{
					Target: tIdx, AtMs: lt.At.Millis(),
					From: lt.From.String(), To: lt.To.String(), Reason: lt.Reason,
				})
			}
			rt, pm, rj := ctl.AdaptStats()
			res.Retrains += rt
			res.Promotions += pm
			res.Rejections += rj
		}
	}
	if c.plane != nil {
		led := c.plane.LedgerSnapshot()
		res.Ctrl = &led
	}
	// Time order; targets appended in index order make the sort's ties
	// deterministic under SliceStable.
	sort.SliceStable(res.Ladder, func(i, j int) bool {
		return res.Ladder[i].AtMs < res.Ladder[j].AtMs
	})
	res.WeightEventCount = len(res.WeightEvents)
	res.AdaptRecovered, res.AdaptRecoverMs = ladderRecovery(res.Ladder)

	c.reg.Fold()
	if reg := spec.Metrics; reg != nil {
		c.profileMetrics(reg)
	}
	if spec.Board != nil {
		// Final publish after the end-of-run fold, so the inspector's
		// last word matches the written artifacts.
		publish()
	}
	return res, nil
}

// ladderRecovery walks the merged ladder ledger and returns the run's
// time-to-recover: the span from the first severe descent — ModelFree
// or Static, the rungs where the model is out of the decision loop —
// until the first moment every target that left Predictive is back on
// it. Predictive↔Retraining churn alone is normal adaptive operation
// (the model still steers) and does not start the clock. Later
// re-descents do not erase a completed recovery — the metric answers
// "how long did the first disruption take to absorb".
func ladderRecovery(steps []LadderStep) (recovered bool, ms float64) {
	severe := map[string]bool{
		core.LadderModelFree.String(): true,
		core.LadderStatic.String():    true,
	}
	non := make(map[int]bool)
	var firstSevere float64
	haveSevere := false
	for _, st := range steps {
		if st.To == core.LadderPredictive.String() {
			delete(non, st.Target)
			if haveSevere && len(non) == 0 && !recovered {
				recovered = true
				ms = st.AtMs - firstSevere
			}
			continue
		}
		non[st.Target] = true
		if severe[st.To] && !haveSevere {
			firstSevere = st.AtMs
			haveSevere = true
		}
	}
	return recovered, ms
}

// profileMetrics stores the engine's wall-clock profile, which exists
// only once the run is over.
func (c *Cluster) profileMetrics(reg *obs.Registry) {
	modeL := obs.L("mode", c.Spec.Mode.String())
	ps := c.Eng.ProfileStats()
	reg.Gauge("sim", "wall_per_sim_second", modeL).Set(ps.WallPerSimSecond)
	// Per-callback-site timings, bounded to the top sites by wall time.
	sites := ps.Sites
	if len(sites) > 10 {
		sites = sites[:10]
	}
	for _, s := range sites {
		l := []obs.Label{modeL, obs.L("site", s.Name)}
		reg.Counter("sim", "site_calls", l...).Add(float64(s.Count))
		reg.Gauge("sim", "site_wall_ms", l...).Set(s.Wall.Seconds() * 1e3)
	}
}

// Digest is the deterministic machine-readable form of a Result: the
// summary plus the raw per-bucket series, which catch divergence the
// aggregated summary would average away. The determinism matrix and the
// sweep orchestrator compare digests byte for byte; the registry
// snapshot, which carries wall-clock profiling series, is reported
// beside the digest by the callers that keep one.
type Digest struct {
	Summary   Summary   `json:"summary"`
	ReadGbps  []float64 `json:"read_gbps_series"`
	WriteGbps []float64 `json:"write_gbps_series"`
	Pauses    []float64 `json:"pauses_series"`
}

// Digest extracts the deterministic digest of the result.
func (r *Result) Digest() Digest {
	return Digest{Summary: r.Summary, ReadGbps: r.ReadGbps, WriteGbps: r.WriteGbps, Pauses: r.Pauses}
}

// CompareModes runs the same trace under DCQCN-only and DCQCN-SRC
// cluster specs (identical otherwise) and returns both results — the
// paper's standard A/B protocol (Sec. IV-B). Optional mods run on each
// finalized spec (mode already set), letting callers attach
// observability or progress output to both runs without changing the
// experiment.
func CompareModes(spec Spec, tpm *core.TPM, tr *trace.Trace, assign Assign, mods ...func(*Spec)) (baseline, src *Result, err error) {
	b := spec
	b.Mode = DCQCNOnly
	for _, m := range mods {
		m(&b)
	}
	cb, err := New(b)
	if err != nil {
		return nil, nil, err
	}
	if baseline, err = cb.Run(tr, assign); err != nil {
		return nil, nil, err
	}
	s := spec
	s.Mode = DCQCNSRC
	s.TPM = tpm
	for _, m := range mods {
		m(&s)
	}
	cs, err := New(s)
	if err != nil {
		return nil, nil, err
	}
	if src, err = cs.Run(tr, assign); err != nil {
		return nil, nil, err
	}
	return baseline, src, nil
}
