package harness

// Chaos-adaptation evaluation (ISSUE 7 tentpole, part c): three
// scenarios that push the trained TPM out of its regime mid-run —
// stepped SSD aging, an MMPP workload phase switch, and a target
// failover — and measure how the adaptive ladder absorbs each one:
// time-to-recover, throughput retained versus an undisturbed oracle,
// and the full ladder-transition timeline (also visible live through
// the PR 6 flight recorder as src_ladder_state/src_retrains series).
//
// All timing is quantized to the trace duration (q = D/100), so the
// reduced-scale determinism-matrix legs exercise the same dynamics as
// the full-size experiments.

import (
	"fmt"
	"io"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/faults"
	"srcsim/internal/nvmeof"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// adaptQuantum is the scenario time base: 1% of the trace duration,
// floored so tiny matrix-scale traces keep a sane observation cadence.
func adaptQuantum(d sim.Time) sim.Time {
	q := d / 100
	if q < 50*sim.Microsecond {
		q = 50 * sim.Microsecond
	}
	return q
}

// AdaptConfig returns the adaptive-controller tuning used by all three
// chaos-adaptation scenarios, scaled to the trace duration d. The
// thresholds are deliberately aggressive — the scenarios inject
// unambiguous regime breaks, and the evaluation wants the ladder's full
// descent/recovery arc inside one run.
func AdaptConfig(d sim.Time) core.AdaptiveConfig {
	q := adaptQuantum(d)
	return core.AdaptiveConfig{
		Enabled:      true,
		ObserveEvery: q,
		// A deliberately short window: after a regime change the model
		// can only become accurate again once post-change samples
		// dominate the window, so recency beats volume here.
		WindowSamples:     40,
		MinRetrainSamples: 20,
		RetrainEvery:      8 * q,
		RetrainTrees:      20,
		PromoteMargin:     0.02,
		MaxRejects:        3,
		ErrWindow:         5,
		ErrDegrade:        0.40,
		ErrHard:           0.60,
		ErrHealthy:        0.35,
		DwellTime:         3 * q,
		RecoverAfter:      3,
		AIMDStep:          1,
		AIMDBackoff:       1.5,
		Cache:             devrun.TPMCacheFromEnv(),
	}
}

// AdaptResult is one chaos-adaptation scenario's outcome: the adaptive
// run, the undisturbed oracle it is scored against, and the ladder
// verdicts the acceptance criteria check.
type AdaptResult struct {
	Scenario string `json:"scenario"`
	// Adaptive is the faulted run with the ladder armed.
	Adaptive cluster.Digest `json:"adaptive"`
	// Oracle is the same workload on an undisturbed testbed with
	// adaptation off — the throughput ceiling the scenario is scored
	// against.
	Oracle cluster.Digest `json:"oracle"`
	// ReachedModelFree: the ladder descended at least to the AIMD rung.
	ReachedModelFree bool `json:"reached_model_free"`
	// Recovered / TimeToRecoverMs mirror the run's Summary ledger.
	Recovered       bool    `json:"recovered"`
	TimeToRecoverMs float64 `json:"time_to_recover_ms"`
	// RetainedPct is adaptive aggregated throughput as a percentage of
	// the oracle's.
	RetainedPct float64 `json:"retained_pct"`
}

// runAdapt executes one scenario: the adaptive leg on spec as given
// (faults installed, ladder armed), then the oracle leg — identical
// testbed and workload with no faults and no adaptation.
func runAdapt(scenario string, spec cluster.Spec, tpm *core.TPM, tr *trace.Trace, mods ...func(*cluster.Spec)) (*AdaptResult, error) {
	spec.Mode = cluster.DCQCNSRC
	spec.TPM = tpm

	// The oracle leg starts from the pristine spec: no faults, no
	// retries, no adaptation, no staleness watchdog — plain SRC on an
	// undisturbed testbed.
	oracle := spec
	oracle.Faults = nil
	oracle.Retry = nvmeof.RetryPolicy{}
	oracle.SRC.Adaptive = core.AdaptiveConfig{}
	oracle.SRC.StaleAfter = 0

	for _, m := range mods {
		m(&spec)
	}
	ca, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	adaptive, err := ca.Run(tr, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: %s adaptive leg: %w", scenario, err)
	}

	for _, m := range mods {
		m(&oracle)
	}
	co, err := cluster.New(oracle)
	if err != nil {
		return nil, err
	}
	ores, err := co.Run(tr, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: %s oracle leg: %w", scenario, err)
	}

	res := &AdaptResult{
		Scenario:        scenario,
		Adaptive:        adaptive.Digest(),
		Oracle:          ores.Digest(),
		Recovered:       adaptive.AdaptRecovered,
		TimeToRecoverMs: adaptive.AdaptRecoverMs,
	}
	for _, st := range adaptive.Ladder {
		if st.To == core.LadderModelFree.String() {
			res.ReachedModelFree = true
			break
		}
	}
	if ores.AggregatedGbps > 0 {
		res.RetainedPct = adaptive.AggregatedGbps / ores.AggregatedGbps * 100
	}
	return res, nil
}

// AdaptAging: stepped SSD aging. Both targets' arrays take an
// escalating ssd-slow staircase (factor 6, then 9) built with
// faults.Repeat, while the VDI workload runs. The TPM — trained on the
// healthy device — overpredicts read throughput by the slow factor, so
// windowed prediction error drives the ladder down; when the last aging
// window expires the incumbent model is accurate again and the ladder
// climbs home.
func AdaptAging(tpm *core.TPM, requests int, seed uint64, mods ...func(*cluster.Spec)) (*AdaptResult, error) {
	tr, err := VDITrace(seed, requests)
	if err != nil {
		return nil, err
	}
	d := tr.Duration()
	spec := CongestionSpec()
	spec.SRC.Adaptive = AdaptConfig(d)

	// Two aging windows per target — [d/8, d/4] at factor 6 and
	// [d/8+d/3, d/4+d/3] at factor 9 — leaving a healthy gap between
	// them and the last ~40% of the trace for the final climb home. The
	// factors are chosen to make the slowed device the binding
	// bottleneck: milder slowdowns hide behind the shared network limit
	// and never push prediction error past ErrHard.
	step := faults.Event{
		At: d / 8, Kind: faults.SSDSlow, Duration: d / 8, Factor: 6,
	}
	var evs []faults.Event
	for _, where := range []string{"target:0", "target:1"} {
		s := step
		s.Where = where
		evs = append(evs, faults.Repeat(s, 2, d/3, 1.5)...)
	}
	spec.Faults = &faults.Schedule{Seed: 0xA61A6, Events: evs}
	return runAdapt("adapt-aging", spec, tpm, tr, mods...)
}

// phaseBTrace is the out-of-envelope second phase for AdaptPhase: the
// workload pivots from the VDI mix (read-heavy, 44 KB reads) to a
// write-dominated pattern whose reads are sparse and tiny. Measured
// read throughput collapses below the smallest target the TPM ever
// trained on — a random forest cannot extrapolate beneath its training
// range, so the calibration error is large for ANY model fitted to
// phase A, making the hard descent robust to how the incumbent was
// trained. In-run retraining can still fit phase B's samples, which is
// what wins the ladder back.
func phaseBTrace(seed uint64, perDir int) (*trace.Trace, error) {
	reads := perDir / 4
	if reads < 1 {
		reads = 1
	}
	return workload.Synthetic(workload.SyntheticConfig{
		Seed:      seed,
		ReadCount: reads, WriteCount: 3 * perDir,
		ReadInterArrival: 40 * sim.Microsecond, WriteInterArrival: 4 * sim.Microsecond,
		ReadInterArrivalSCV: 1.2, WriteInterArrivalSCV: 5.0,
		ReadACF1: 0.05, WriteACF1: 0.40,
		ReadMeanSize: 2 << 10, WriteMeanSize: 28 << 10,
		ReadSizeSCV: 0.8, WriteSizeSCV: 2.2,
	})
}

// AdaptPhase: MMPP workload phase switch. Phase A is the VDI trace;
// phase B (appended seamlessly after it) is phaseBTrace's write-heavy
// small-transfer regime. No faults are injected — the disruption is
// that the model's envelope no longer covers the traffic, so recovery
// requires in-run retraining to promote a candidate fitted to phase B's
// samples (there is no healthy regime to "come back" to).
func AdaptPhase(tpm *core.TPM, requests int, seed uint64, mods ...func(*cluster.Spec)) (*AdaptResult, error) {
	a, err := VDITrace(seed, requests)
	if err != nil {
		return nil, err
	}
	b, err := phaseBTrace(seed+1, requests)
	if err != nil {
		return nil, err
	}
	// Shift phase B to start where phase A ends, merge, and re-ID: both
	// synthetic traces number their requests from zero, and request IDs
	// key the cluster's submit/flight/dedup maps.
	shift := a.Duration() + 10*sim.Microsecond
	for i := range b.Requests {
		b.Requests[i].Arrival += shift
	}
	tr := a.Merge(b)
	for i := range tr.Requests {
		tr.Requests[i].ID = uint64(i)
	}

	d := tr.Duration()
	spec := CongestionSpec()
	spec.SRC.Adaptive = AdaptConfig(d)
	// A workload phase switch degrades the model more gently than a
	// hardware fault: the feature window co-varies with the traffic, so
	// calibration error settles into a persistent mid-band rather than
	// blowing out. The scenario arms a tighter hard threshold to
	// classify that sustained miscalibration as model breakdown.
	spec.SRC.Adaptive.ErrHard = 0.45
	return runAdapt("adapt-phase", spec, tpm, tr, mods...)
}

// AdaptFailover: target failover. Target 1's host link goes down a
// quarter into the run and stays down for another quarter; retries are
// armed so orphaned commands fail over cleanly, and StaleAfter is armed
// so target 1's controller — whose telemetry feed went silent with the
// link — drops to Static rather than steering on a dead feature window.
// When the link returns, telemetry freshens and the ladder climbs back.
func AdaptFailover(tpm *core.TPM, requests int, seed uint64, mods ...func(*cluster.Spec)) (*AdaptResult, error) {
	tr, err := VDITrace(seed, requests)
	if err != nil {
		return nil, err
	}
	d := tr.Duration()
	q := adaptQuantum(d)
	spec := CongestionSpec()
	spec.SRC.Adaptive = AdaptConfig(d)
	// Wide enough that MMPP burst gaps never trip it, far smaller than
	// the d/6 link outage that should.
	spec.SRC.StaleAfter = 12 * q
	spec.Horizon = 3*d + 400*sim.Millisecond
	// Retry timing in trace quanta so matrix-scale runs keep the same
	// dynamics. The timeout must clear healthy p99 latency by a wide
	// margin (a tight timeout turns ordinary congestion into a retry
	// storm) while still resolving orphaned commands within a few quanta
	// of the link returning, leaving the back half of the trace for the
	// climb home.
	spec.Faults = &faults.Schedule{
		Seed: 0xFA11,
		Recovery: &faults.Recovery{
			Timeout:     40 * q,
			MaxRetries:  5,
			BackoffBase: 4 * q,
			BackoffCap:  16 * q,
		},
		Events: []faults.Event{
			// A short outage: the backlog it creates scales with its
			// length, and the post-outage catch-up (a drifting regime no
			// model predicts well) must finish early enough for the
			// ladder to climb home inside the arrival span.
			{At: d / 6, Kind: faults.LinkDown, Where: "target:1", Duration: d / 8},
		},
	}
	return runAdapt("adapt-failover", spec, tpm, tr, mods...)
}

// FprintAdapt renders one scenario's verdicts and ladder timeline (the
// srcsim text output for the adapt-* experiments).
func FprintAdapt(w io.Writer, r *AdaptResult) {
	fmt.Fprintf(w, "%s: chaos-adaptation scenario\n", r.Scenario)
	fmt.Fprintf(w, "adaptive    read %5.2f Gbps | write %5.2f Gbps | aggregated %5.2f Gbps\n",
		r.Adaptive.Summary.MeanReadGbps, r.Adaptive.Summary.MeanWriteGbps, r.Adaptive.Summary.AggregatedGbps)
	fmt.Fprintf(w, "oracle      read %5.2f Gbps | write %5.2f Gbps | aggregated %5.2f Gbps\n",
		r.Oracle.Summary.MeanReadGbps, r.Oracle.Summary.MeanWriteGbps, r.Oracle.Summary.AggregatedGbps)
	fmt.Fprintf(w, "retained %.1f%% of oracle | reached ModelFree: %v | recovered: %v",
		r.RetainedPct, r.ReachedModelFree, r.Recovered)
	if r.Recovered {
		fmt.Fprintf(w, " in %.2f ms", r.TimeToRecoverMs)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "retraining: %d fits, %d promoted, %d rejected\n",
		r.Adaptive.Summary.Retrains, r.Adaptive.Summary.Promotions, r.Adaptive.Summary.Rejections)
	fmt.Fprintln(w, "ladder timeline:")
	for _, st := range r.Adaptive.Summary.Ladder {
		fmt.Fprintf(w, "  %8.2fms t%d %-10s -> %-10s (%s)\n",
			st.AtMs, st.Target, st.From, st.To, st.Reason)
	}
	if r.Adaptive.Summary.Failed > 0 {
		fmt.Fprintf(w, "accounting: completed %d + failed %d of %d submitted\n",
			r.Adaptive.Summary.Completed, r.Adaptive.Summary.Failed, r.Adaptive.Summary.Submitted)
	}
}
