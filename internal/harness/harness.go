// Package harness regenerates every table and figure of the paper's
// evaluation (Sec. IV). Each experiment has one entry point returning
// typed rows/series plus a Fprint helper that renders the same layout
// the paper reports. EXPERIMENTS.md records paper-versus-measured for
// each one.
//
// Calibration note (see DESIGN.md "Substitutions"): the paper's absolute
// scale depends on unpublished NS3/MQSim build details; this harness
// fixes the per-target flash array at 4 channels × 4 dies and the host
// links at 10 Gbps, which reproduces the paper's operating regime —
// reads overload both the device and the initiator downlink while writes
// fit the uplink — at ~1/4 the nominal link rate. All comparisons are
// A/B under identical settings, so shapes and ratios are preserved.
package harness

import (
	"fmt"
	"io"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/guard"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// LinkRate is the calibrated host link speed for congestion experiments.
const LinkRate = 10e9

// TargetArrayConfig sizes a Table II device as one target's flash array
// (4 channels × 4 dies), the calibration used by Figs. 7-10 and
// Table IV.
func TargetArrayConfig(cfg ssd.Config) ssd.Config {
	cfg.Channels = 4
	cfg.DiesPerChannel = 4
	return cfg
}

// CongestionSpec returns the Sec. IV-D testbed: 1 initiator, 2 targets,
// SSD-A arrays, 10 Gbps links. The conservation auditor runs on every
// harness experiment: audits are read-only, so they cannot perturb the
// run, and a violation fails the experiment instead of skewing its
// figures.
func CongestionSpec() cluster.Spec {
	return cluster.Spec{
		Initiators: 1,
		Targets:    2,
		SSD:        TargetArrayConfig(ssd.ConfigA()),
		LinkRate:   LinkRate,
		Guard:      guard.Config{Audit: true},
	}
}

// VDITrace generates the Sec. IV-D workload: a synthetic trace with the
// Fujitsu-VDI statistics the paper reports (read-heavy, 44 KB reads /
// 23 KB writes, ~10 µs read inter-arrival, bursty MMPP arrivals).
// perDir is the write count; reads get twice as many requests.
func VDITrace(seed uint64, perDir int) (*trace.Trace, error) {
	return workload.Synthetic(workload.SyntheticConfig{
		Seed:      seed,
		ReadCount: 2 * perDir, WriteCount: perDir,
		ReadInterArrival: 10 * sim.Microsecond, WriteInterArrival: 20 * sim.Microsecond,
		ReadInterArrivalSCV: 3.0, WriteInterArrivalSCV: 2.5,
		ReadACF1: 0.2, WriteACF1: 0.15,
		ReadMeanSize: 44 << 10, WriteMeanSize: 23 << 10,
		ReadSizeSCV: 1.8, WriteSizeSCV: 1.4,
	})
}

// TrainCongestionTPM trains the TPM used by the congestion experiments
// (on the target-array SSD-A device). count is the per-direction request
// count per training run; 1000-2500 is plenty.
func TrainCongestionTPM(count int, seed uint64) (*core.TPM, []core.Sample, error) {
	return devrun.TrainTPM(TargetArrayConfig(ssd.ConfigA()), count, seed)
}

// fprintSeries renders a Gbps time series compactly, one row per bucket
// group of ten.
func fprintSeries(w io.Writer, label string, xs []float64) {
	fmt.Fprintf(w, "%s (Gbps per ms):\n", label)
	for i := 0; i < len(xs); i += 10 {
		end := i + 10
		if end > len(xs) {
			end = len(xs)
		}
		fmt.Fprintf(w, "  %4dms:", i)
		for _, v := range xs[i:end] {
			fmt.Fprintf(w, " %6.2f", v)
		}
		fmt.Fprintln(w)
	}
}
