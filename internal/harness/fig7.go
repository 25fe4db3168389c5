package harness

import (
	"fmt"
	"io"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/netsim"
)

// CongestionResult is a paired DCQCN-only / DCQCN-SRC run (Figs. 7, 8,
// 10 and Table IV all build on it).
type CongestionResult struct {
	Baseline *cluster.Result
	SRC      *cluster.Result
}

// Improvement returns the aggregated-throughput gain of SRC over the
// baseline (e.g. 0.33 for the paper's 2:1 row).
func (c *CongestionResult) Improvement() float64 {
	if c.Baseline.AggregatedGbps == 0 {
		return 0
	}
	return c.SRC.AggregatedGbps/c.Baseline.AggregatedGbps - 1
}

// Fig7Throughput reproduces Figs. 7 and 8: the Sec. IV-D VDI-like
// workload on 1 initiator × 2 SSD-A targets, run under CC-only and
// CC-SRC. The result carries the per-millisecond read/write throughput
// series (Fig. 7) and pause-number series (Fig. 8). perDir is the
// write-request count (reads get 2×). The paper runs DCQCN; SRC consumes
// only rate events, so the same experiment runs unchanged over any
// registered scheme (an extension beyond the paper). Optional mods adjust
// each run's spec (e.g. attach a metrics registry or tracer).
func Fig7Throughput(tpm *core.TPM, perDir int, seed uint64, cc netsim.CCAlg, mods ...func(*cluster.Spec)) (*CongestionResult, error) {
	tr, err := VDITrace(seed, perDir)
	if err != nil {
		return nil, err
	}
	spec := CongestionSpec()
	spec.Net.CC = cc
	base, src, err := cluster.CompareModes(spec, tpm, tr, nil, mods...)
	if err != nil {
		return nil, err
	}
	return &CongestionResult{Baseline: base, SRC: src}, nil
}

// FprintFig7 renders both runtime throughput timelines plus the summary
// aggregates.
func FprintFig7(w io.Writer, res *CongestionResult) {
	fmt.Fprintln(w, "Fig. 7: runtime throughput under DCQCN-only and DCQCN-SRC")
	for _, r := range []struct {
		name string
		res  *cluster.Result
	}{{"DCQCN-only", res.Baseline}, {"DCQCN-SRC", res.SRC}} {
		fmt.Fprintf(w, "-- %s: read %.2f Gbps, write %.2f Gbps, aggregated %.2f Gbps\n",
			r.name, r.res.MeanReadGbps, r.res.MeanWriteGbps, r.res.AggregatedGbps)
		fprintSeries(w, "   read", r.res.ReadGbps)
		fprintSeries(w, "   write", r.res.WriteGbps)
	}
	fmt.Fprintf(w, "SRC aggregated improvement: %+.0f%%\n", res.Improvement()*100)
}

// FprintFig8 renders the pause-number timelines of the same runs.
func FprintFig8(w io.Writer, res *CongestionResult) {
	fmt.Fprintln(w, "Fig. 8: pause number (congestion signals at targets, per ms)")
	fprintSeries(w, "DCQCN-only pauses", res.Baseline.Pauses)
	fprintSeries(w, "DCQCN-SRC pauses", res.SRC.Pauses)
	fmt.Fprintf(w, "totals: DCQCN-only %d CNPs, DCQCN-SRC %d CNPs\n",
		res.Baseline.TotalCNPs, res.SRC.TotalCNPs)
}
