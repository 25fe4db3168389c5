package harness

// In-band control-plane evaluation (ISSUE 8 tentpole): SRC's telemetry
// and weight directives ride a lossy, delayed, reorderable channel
// (internal/ctrlplane) instead of direct function calls. Two
// experiments probe the consequences:
//
//   - ctrl-degradation sweeps channel loss x delay and measures how
//     much throughput SRC retains versus the direct-call oracle as its
//     control loop starves — the robustness analogue of Fig. 7.
//   - ctrl-failover crashes the primary controller mid-run with a warm
//     standby armed and reports the epoch arc (crash -> lease expiry ->
//     takeover -> reconverged) plus time-to-reconverge.
//
// All timing derives from the same trace-duration quantum as the
// chaos-adaptation scenarios (adaptQuantum), so reduced matrix-scale
// runs keep the full dynamics.

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/ctrlplane"
	"srcsim/internal/faults"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// CtrlConfig returns the control-plane tuning used by both experiments,
// scaled to the trace duration d. The lease ladder (live -> held ->
// fallback) and the standby watchdog all fit inside one run: lease
// expiry at 4q, failover at 6q, static fallback at 12q.
func CtrlConfig(d sim.Time) ctrlplane.Config {
	q := adaptQuantum(d)
	return ctrlplane.Config{
		Enabled:        true,
		BaseDelay:      q / 8,
		TelemetryEvery: q / 2,
		AckTimeout:     q / 2,
		MaxRetries:     5,
		BackoffCap:     4 * q,
		HeartbeatEvery: q,
		LeaseTimeout:   4 * q,
		GraceWindow:    8 * q,
		FailoverAfter:  6 * q,
		ReorderProb:    0.02,
	}
}

// ctrlSpec is the shared DCQCN-SRC testbed with the in-band plane
// armed: the congestion testbed plus a denser directive cadence
// (MinEventGap at one quantum) so the channel actually carries steering
// traffic at matrix scale.
func ctrlSpec(d sim.Time) cluster.Spec {
	spec := CongestionSpec()
	spec.Mode = cluster.DCQCNSRC
	spec.Ctrl = CtrlConfig(d)
	spec.SRC.MinEventGap = adaptQuantum(d)
	// The conservative write-protecting fallback the chaos-recovery
	// config uses: an agent cut off from its controller pins a static
	// read cut, so a dead control channel costs real read/aggregate
	// throughput instead of silently coasting at the neutral 1:1.
	// StaleAfter stays 0, so only the lease agents apply it.
	spec.SRC.FallbackWeight = 8
	return spec
}

// runCtrlOracle runs the pristine comparison leg: the identical
// testbed and workload with the control plane off (direct calls) and no
// faults — the throughput ceiling in-band control is scored against.
func runCtrlOracle(name string, spec cluster.Spec, tpm *core.TPM, tr *trace.Trace, mods ...func(*cluster.Spec)) (*cluster.Result, error) {
	oracle := spec
	oracle.TPM = tpm
	oracle.Ctrl = ctrlplane.Config{}
	oracle.Faults = nil
	for _, m := range mods {
		m(&oracle)
	}
	co, err := cluster.New(oracle)
	if err != nil {
		return nil, err
	}
	res, err := co.Run(tr, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: %s oracle leg: %w", name, err)
	}
	return res, nil
}

// CtrlCell is one loss x delay sweep point of ctrl-degradation.
type CtrlCell struct {
	// Loss is the per-message drop probability; DelayX multiplies the
	// quantum-scaled base delay.
	Loss   float64 `json:"loss"`
	DelayX float64 `json:"delay_x"`
	// Run is the cell's digest (its Summary.Ctrl ledger carries the
	// drop/retry/fallback counters).
	Run cluster.Digest `json:"run"`
	// RetainedPct is the cell's aggregated (windowed mean) throughput as
	// a percentage of the direct-call oracle's. The degraded channel's
	// cost lands on the read side: lease fallback pins the conservative
	// write-protecting weight, a read cut dynamic SRC would release.
	RetainedPct float64 `json:"retained_pct"`
}

// CtrlDegradationResult is the full sweep outcome.
type CtrlDegradationResult struct {
	Oracle cluster.Digest `json:"oracle"`
	Cells  []CtrlCell     `json:"cells"`
}

// CtrlDegradation sweeps the control channel's loss probability and
// base delay over the VDI congestion workload. Every cell runs the same
// trace on the same testbed; only the channel quality differs, so the
// throughput spread isolates what starving the control loop costs.
// Expect monotone degradation toward the lossy corner: lost heartbeats
// expire leases and pin agents at the conservative fallback read cut,
// lost directives strand stale weights, and delay ages the telemetry
// the controller steers by. The effect needs sustained channel death to
// clear run-to-run noise — at the paper-scale default (1200 requests,
// loss up to 0.99) the dead corner loses ~10% of aggregate throughput.
func CtrlDegradation(tpm *core.TPM, requests int, seed uint64, losses, delayXs []float64, mods ...func(*cluster.Spec)) (*CtrlDegradationResult, error) {
	tr, err := VDITrace(seed, requests)
	if err != nil {
		return nil, err
	}
	d := tr.Duration()
	base := ctrlSpec(d)

	ores, err := runCtrlOracle("ctrl-degradation", base, tpm, tr, mods...)
	if err != nil {
		return nil, err
	}
	out := &CtrlDegradationResult{Oracle: ores.Digest()}

	for _, loss := range losses {
		for _, dx := range delayXs {
			spec := base
			spec.TPM = tpm
			spec.Ctrl.LossProb = loss
			spec.Ctrl.BaseDelay = sim.Time(float64(spec.Ctrl.BaseDelay) * dx)
			for _, m := range mods {
				m(&spec)
			}
			c, err := cluster.New(spec)
			if err != nil {
				return nil, err
			}
			res, err := c.Run(tr, nil)
			if err != nil {
				return nil, fmt.Errorf("harness: ctrl-degradation loss=%g delay=%gx: %w", loss, dx, err)
			}
			cell := CtrlCell{Loss: loss, DelayX: dx, Run: res.Digest()}
			if ores.AggregatedGbps > 0 {
				cell.RetainedPct = res.AggregatedGbps / ores.AggregatedGbps * 100
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}

// CtrlFailoverResult is the controller-crash experiment's outcome.
type CtrlFailoverResult struct {
	// Run is the faulted in-band leg; Oracle the direct-call pristine
	// leg it is scored against.
	Run    cluster.Digest `json:"run"`
	Oracle cluster.Digest `json:"oracle"`
	// FailedOver: the standby took over (a "failover" epoch step).
	FailedOver bool `json:"failed_over"`
	// Fenced: the dead primary restarted after the takeover and was
	// fenced rather than resuming ("restart-fenced" epoch step).
	Fenced bool `json:"fenced"`
	// Epochs is the run's full epoch ledger (boot -> crash -> failover
	// -> reconverged -> restart-fenced).
	Epochs []ctrlplane.EpochStep `json:"epochs"`
	// ReconvergeMs is the span from the failover takeover to the first
	// directive of the new epoch applied at an agent — how long the
	// data plane steered blind.
	ReconvergeMs float64 `json:"reconverge_ms"`
	// RetainedPct is the faulted leg's aggregated throughput as a
	// percentage of the oracle's.
	RetainedPct float64 `json:"retained_pct"`
}

// CtrlFailover crashes the primary controller a quarter into the VDI
// run with the warm standby armed. The crash silences heartbeats:
// agent leases expire and hold last-known-good weights, the standby's
// watchdog fires and takes over under a bumped epoch with re-seeded
// monitor windows, and the restarted primary (half-way point) comes
// back fenced. The epoch guard keeps any straggler directives from the
// dead primary out of the data plane.
func CtrlFailover(tpm *core.TPM, requests int, seed uint64, mods ...func(*cluster.Spec)) (*CtrlFailoverResult, error) {
	tr, err := VDITrace(seed, requests)
	if err != nil {
		return nil, err
	}
	d := tr.Duration()
	spec := ctrlSpec(d)
	spec.TPM = tpm
	spec.Ctrl.Standby = true
	spec.Faults = &faults.Schedule{
		Seed: 0xC7A5,
		Events: []faults.Event{
			{At: d / 4, Kind: faults.ControllerCrash, Where: "controller:0", Duration: d / 4},
		},
	}

	ores, err := runCtrlOracle("ctrl-failover", spec, tpm, tr, mods...)
	if err != nil {
		return nil, err
	}

	for _, m := range mods {
		m(&spec)
	}
	c, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	res, err := c.Run(tr, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: ctrl-failover faulted leg: %w", err)
	}

	out := &CtrlFailoverResult{Run: res.Digest(), Oracle: ores.Digest()}
	if res.Ctrl != nil {
		out.Epochs = res.Ctrl.Epochs
		var failAt float64
		var failEpoch uint64
		for _, st := range res.Ctrl.Epochs {
			switch st.Reason {
			case "failover":
				out.FailedOver = true
				failAt, failEpoch = st.AtMs, st.Epoch
			case "restart-fenced":
				out.Fenced = true
			case "reconverged":
				if out.FailedOver && st.Epoch == failEpoch && out.ReconvergeMs == 0 {
					out.ReconvergeMs = st.AtMs - failAt
				}
			}
		}
	}
	if ores.AggregatedGbps > 0 {
		out.RetainedPct = res.AggregatedGbps / ores.AggregatedGbps * 100
	}
	return out, nil
}

// parseFloats parses a comma-separated float list parameter.
func parseFloats(name, s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("harness: param %s=%q: %w", name, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// fprintCtrlLedger renders one run's control-plane ledger line.
func fprintCtrlLedger(w io.Writer, led *ctrlplane.Ledger) {
	if led == nil {
		return
	}
	fmt.Fprintf(w, "channel: sent %d | delivered %d | dropped %d | retries %d | abandoned %d\n",
		led.Sent, led.Delivered, led.Dropped, led.DirectiveRetries, led.DirectivesAbandoned)
	fmt.Fprintf(w, "liveness: lease expiries %d | fallbacks %d | recoveries %d | stale rejected %d | dups acked %d\n",
		led.LeaseExpiries, led.Fallbacks, led.LeaseRecoveries, led.StaleRejected, led.DupsAcked)
}

// FprintCtrlDegradation renders the loss x delay sweep table.
func FprintCtrlDegradation(w io.Writer, r *CtrlDegradationResult) {
	fmt.Fprintln(w, "ctrl-degradation: control-channel loss x delay sweep (DCQCN-SRC, in-band)")
	fmt.Fprintf(w, "oracle (direct calls)        read %5.2f | write %5.2f | aggregated %5.2f Gbps\n",
		r.Oracle.Summary.MeanReadGbps, r.Oracle.Summary.MeanWriteGbps, r.Oracle.Summary.AggregatedGbps)
	for _, c := range r.Cells {
		fmt.Fprintf(w, "loss %4.2f delay %5.1fx  read %5.2f | agg %5.2f Gbps  retained %5.1f%%",
			c.Loss, c.DelayX, c.Run.Summary.MeanReadGbps, c.Run.Summary.AggregatedGbps, c.RetainedPct)
		if led := c.Run.Summary.Ctrl; led != nil {
			fmt.Fprintf(w, "  (dropped %d, retries %d, fallbacks %d)", led.Dropped, led.DirectiveRetries, led.Fallbacks)
		}
		fmt.Fprintln(w)
	}
}

// FprintCtrlFailover renders the failover arc and verdicts.
func FprintCtrlFailover(w io.Writer, r *CtrlFailoverResult) {
	fmt.Fprintln(w, "ctrl-failover: primary controller crash with warm standby (DCQCN-SRC, in-band)")
	fmt.Fprintf(w, "in-band     read %5.2f Gbps | write %5.2f Gbps | aggregated %5.2f Gbps\n",
		r.Run.Summary.MeanReadGbps, r.Run.Summary.MeanWriteGbps, r.Run.Summary.AggregatedGbps)
	fmt.Fprintf(w, "oracle      read %5.2f Gbps | write %5.2f Gbps | aggregated %5.2f Gbps\n",
		r.Oracle.Summary.MeanReadGbps, r.Oracle.Summary.MeanWriteGbps, r.Oracle.Summary.AggregatedGbps)
	fmt.Fprintf(w, "retained %.1f%% of oracle | failed over: %v | primary fenced: %v",
		r.RetainedPct, r.FailedOver, r.Fenced)
	if r.FailedOver {
		fmt.Fprintf(w, " | reconverged in %.2f ms", r.ReconvergeMs)
	}
	fmt.Fprintln(w)
	fprintCtrlLedger(w, r.Run.Summary.Ctrl)
	fmt.Fprintln(w, "epoch ledger:")
	for _, st := range r.Epochs {
		fmt.Fprintf(w, "  %8.2fms epoch %d (%s)\n", st.AtMs, st.Epoch, st.Reason)
	}
}
