package harness

// The scenario experiment: runs a composed application scenario
// (internal/scenario) on the Sec. IV-D congestion testbed under both
// modes — DCQCN-only and DCQCN-SRC — and reports per-mode aggregate
// throughput retention, the cc-matrix normalisation applied to the
// application-centric workloads of the scenario library.

import (
	"fmt"
	"io"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/netsim"
	"srcsim/internal/scenario"
)

// ScenarioResult is one scenario's paired run with retention
// normalisation.
type ScenarioResult struct {
	Name string `json:"name"`
	// Phases are the compiled phase windows (absolute scenario time).
	Phases []scenario.PhaseWindow `json:"phases"`
	// FaultEvents counts the compiled fault schedule's events.
	FaultEvents int `json:"fault_events"`
	// Requests is the merged trace's request count.
	Requests int            `json:"requests"`
	Baseline cluster.Digest `json:"baseline"`
	SRC      cluster.Digest `json:"src"`
	// RetentionOff/On normalise each mode's aggregate throughput to the
	// pair's best aggregate, mirroring CCMatrixRow.
	RetentionOff   float64 `json:"retention_off"`
	RetentionOn    float64 `json:"retention_on"`
	ImprovementPct float64 `json:"improvement_pct"`
}

// RunScenario compiles the spec at the given seed and runs the merged
// trace through cluster.CompareModes on the congestion testbed,
// installing the scenario's compiled fault schedule into both modes.
func RunScenario(tpm *core.TPM, spec *scenario.Spec, seed uint64, cc netsim.CCAlg, mods ...func(*cluster.Spec)) (*ScenarioResult, error) {
	comp, err := spec.Compile(seed)
	if err != nil {
		return nil, err
	}
	cspec := CongestionSpec()
	cspec.Net.CC = cc
	cspec.Faults = comp.Faults
	base, src, err := cluster.CompareModes(cspec, tpm, comp.Trace, nil, mods...)
	if err != nil {
		return nil, fmt.Errorf("harness: scenario %s: %w", spec.Name, err)
	}
	res := &ScenarioResult{
		Name:     spec.Name,
		Phases:   comp.Phases,
		Requests: comp.Trace.Len(),
		Baseline: base.Digest(),
		SRC:      src.Digest(),
	}
	if comp.Faults != nil {
		res.FaultEvents = len(comp.Faults.Events)
	}
	maxAgg := res.Baseline.Summary.AggregatedGbps
	if res.SRC.Summary.AggregatedGbps > maxAgg {
		maxAgg = res.SRC.Summary.AggregatedGbps
	}
	if maxAgg > 0 {
		res.RetentionOff = res.Baseline.Summary.AggregatedGbps / maxAgg
		res.RetentionOn = res.SRC.Summary.AggregatedGbps / maxAgg
		res.ImprovementPct = (res.SRC.Summary.AggregatedGbps/res.Baseline.Summary.AggregatedGbps - 1) * 100
	}
	return res, nil
}

// FprintScenario renders a scenario run: the compiled phase timeline,
// then the paired throughput and retention lines.
func FprintScenario(w io.Writer, r *ScenarioResult) {
	fmt.Fprintf(w, "Scenario %s: %d requests", r.Name, r.Requests)
	if r.FaultEvents > 0 {
		fmt.Fprintf(w, ", %d fault events", r.FaultEvents)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-20s %10s %10s %9s %s\n", "phase", "start_ms", "end_ms", "requests", "mode")
	for _, ph := range r.Phases {
		mode := "sequential"
		if ph.Overlay {
			mode = "overlay"
		}
		fmt.Fprintf(w, "%-20s %10.2f %10.2f %9d %s\n",
			ph.Name, ph.Start.Millis(), ph.End.Millis(), ph.Requests, mode)
	}
	fmt.Fprintf(w, "%-11s read %5.2f Gbps | write %5.2f Gbps | aggregated %5.2f Gbps | retention %5.1f%%\n",
		"DCQCN-only", r.Baseline.Summary.MeanReadGbps, r.Baseline.Summary.MeanWriteGbps,
		r.Baseline.Summary.AggregatedGbps, r.RetentionOff*100)
	fmt.Fprintf(w, "%-11s read %5.2f Gbps | write %5.2f Gbps | aggregated %5.2f Gbps | retention %5.1f%%\n",
		"DCQCN-SRC", r.SRC.Summary.MeanReadGbps, r.SRC.Summary.MeanWriteGbps,
		r.SRC.Summary.AggregatedGbps, r.RetentionOn*100)
	fmt.Fprintf(w, "aggregate gain %+.0f%%\n", r.ImprovementPct)
}

func init() {
	register(&Experiment{
		Name:  "scenario",
		Title: "composed application scenario, DCQCN-only vs DCQCN-SRC (retention)",
		TPM:   TPMCongestion,
		Params: []Param{
			{Name: "name", Default: "vdi-boot-storm",
				Help: "library scenario: " + paramJoin(scenario.Names())},
			{Name: "file", Default: "", Help: "scenario spec JSON path (overrides name)"},
			{Name: "requests", Default: "1600", Help: "base per-direction request count (library scenarios); SRC-on vs SRC-off differentiation needs the sustained-contention regime around 1600"},
			{Name: "seed", Default: "7", Help: "scenario seed (0 keeps the spec's own)"},
			{Name: "cc", Default: "dcqcn", Help: ccParamHelp()},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			requests, err := p.Int("requests")
			if err != nil {
				return nil, err
			}
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			cc, err := ParseCC(p["cc"])
			if err != nil {
				return nil, err
			}
			var spec *scenario.Spec
			if p["file"] != "" {
				spec, err = scenario.LoadSpec(p["file"])
				if err != nil {
					return nil, err
				}
			} else {
				sc, ok := scenario.Lookup(p["name"])
				if !ok {
					return nil, fmt.Errorf("harness: unknown scenario %q (want one of %s)",
						p["name"], paramJoin(scenario.Names()))
				}
				spec = sc.Build(seed, requests)
			}
			tpm, err := env.tpm(TPMCongestion)
			if err != nil {
				return nil, err
			}
			res, err := RunScenario(tpm, spec, seed, cc, env.Mods...)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintScenario(w, res) }), Data: res}, nil
		},
	})
}

// paramJoin renders a name list for param help strings.
func paramJoin(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " | "
		}
		out += n
	}
	return out
}
