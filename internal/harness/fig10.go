package harness

import (
	"fmt"
	"io"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/netsim"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// Fig10Row is one intensity level's paired result.
type Fig10Row struct {
	Level  workload.IntensityLevel
	Result *CongestionResult
}

// fig10RateScale maps the paper's arrival rates (defined against its
// 40 Gbps testbed) onto the harness's 10 Gbps calibration; see the
// package comment.
const fig10RateScale = 0.35

// Fig10Trace builds one intensity workload: the paper's request sizes
// (22/32/44 KB) at rates scaled to the harness link calibration, equal
// read and write streams. seconds controls the trace length.
func Fig10Trace(level workload.IntensityLevel, seconds float64, seed uint64) (*trace.Trace, error) {
	var size int
	var ratePerMS float64
	switch level {
	case workload.Light:
		size, ratePerMS = 22<<10, 60
	case workload.Moderate:
		size, ratePerMS = 32<<10, 80
	case workload.Heavy:
		size, ratePerMS = 44<<10, 100
	default:
		panic("harness: unknown intensity level")
	}
	ratePerMS *= fig10RateScale
	interArrival := sim.Time(float64(sim.Millisecond) / ratePerMS)
	count := int(seconds * 1000 * ratePerMS)
	return workload.Micro(workload.MicroConfig{
		Seed:      seed,
		ReadCount: count, WriteCount: count,
		ReadInterArrival: interArrival, WriteInterArrival: interArrival,
		ReadMeanSize: size, WriteMeanSize: size,
	})
}

// Fig10Intensity reproduces Fig. 10: CC-only versus CC-SRC across
// light, moderate, and heavy micro workloads on the Sec. IV-D testbed.
// The expected shape: no visible difference under light load (queues are
// empty so WRR cannot act) and a clear SRC write/aggregate win under
// moderate and heavy load. The paper runs DCQCN; like Fig7Throughput,
// the sweep runs unchanged over any registered scheme.
func Fig10Intensity(tpm *core.TPM, seconds float64, seed uint64, cc netsim.CCAlg, mods ...func(*cluster.Spec)) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, level := range []workload.IntensityLevel{workload.Light, workload.Moderate, workload.Heavy} {
		tr, err := Fig10Trace(level, seconds, seed+uint64(level))
		if err != nil {
			return nil, fmt.Errorf("harness: Fig10 %v: %w", level, err)
		}
		spec := CongestionSpec()
		spec.Net.CC = cc
		base, src, err := cluster.CompareModes(spec, tpm, tr, nil, mods...)
		if err != nil {
			return nil, fmt.Errorf("harness: Fig10 %v: %w", level, err)
		}
		rows = append(rows, Fig10Row{Level: level, Result: &CongestionResult{Baseline: base, SRC: src}})
	}
	return rows, nil
}

// FprintFig10 renders the intensity comparison.
func FprintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Fig. 10: workload-intensity sensitivity")
	fmt.Fprintf(w, "%-10s %22s %22s %8s\n", "intensity", "DCQCN-only (R/W/agg)", "DCQCN-SRC (R/W/agg)", "gain")
	for _, r := range rows {
		b, s := r.Result.Baseline, r.Result.SRC
		fmt.Fprintf(w, "%-10s %6.2f/%5.2f/%6.2f  %6.2f/%5.2f/%6.2f  %+6.0f%%\n",
			r.Level, b.MeanReadGbps, b.MeanWriteGbps, b.AggregatedGbps,
			s.MeanReadGbps, s.MeanWriteGbps, s.AggregatedGbps,
			r.Result.Improvement()*100)
	}
}
