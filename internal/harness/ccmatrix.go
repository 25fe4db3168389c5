package harness

import (
	"fmt"
	"io"
	"strings"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
)

// CCMatrixRow is one congestion-control scheme's paired SRC-off /
// SRC-on run on the Fig. 7 congested workload. Retention is the run's
// aggregate throughput normalised to the best aggregate seen anywhere
// in the matrix, so schemes are comparable on one scale: how much of
// the achievable fabric throughput each transport retains at the
// congested operating point, with and without SRC on top.
type CCMatrixRow struct {
	Scheme         string  `json:"scheme"`
	BaselineGbps   float64 `json:"baseline_gbps"`
	SRCGbps        float64 `json:"src_gbps"`
	RetentionOff   float64 `json:"retention_off"`
	RetentionOn    float64 `json:"retention_on"`
	ImprovementPct float64 `json:"improvement_pct"`
}

// CCMatrixResult is the full {scheme} x {SRC on/off} matrix.
type CCMatrixResult struct {
	Rows       []CCMatrixRow `json:"rows"`
	MaxAggGbps float64       `json:"max_agg_gbps"`
}

// CCMatrix runs the Fig. 7 VDI workload under every named
// congestion-control scheme, paired SRC-off / SRC-on, on the
// Sec. IV-D testbed. perDir is the write-request count (reads get 2x).
func CCMatrix(tpm *core.TPM, perDir int, seed uint64, schemes []string, mods ...func(*cluster.Spec)) (*CCMatrixResult, error) {
	res := &CCMatrixResult{}
	for _, name := range schemes {
		name = strings.TrimSpace(name)
		cc, err := ParseCC(name)
		if err != nil {
			return nil, err
		}
		pair, err := Fig7Throughput(tpm, perDir, seed, cc, mods...)
		if err != nil {
			return nil, fmt.Errorf("harness: cc-matrix %s: %w", name, err)
		}
		res.Rows = append(res.Rows, CCMatrixRow{
			Scheme:         name,
			BaselineGbps:   pair.Baseline.AggregatedGbps,
			SRCGbps:        pair.SRC.AggregatedGbps,
			ImprovementPct: pair.Improvement() * 100,
		})
		if pair.Baseline.AggregatedGbps > res.MaxAggGbps {
			res.MaxAggGbps = pair.Baseline.AggregatedGbps
		}
		if pair.SRC.AggregatedGbps > res.MaxAggGbps {
			res.MaxAggGbps = pair.SRC.AggregatedGbps
		}
	}
	if res.MaxAggGbps > 0 {
		for i := range res.Rows {
			res.Rows[i].RetentionOff = res.Rows[i].BaselineGbps / res.MaxAggGbps
			res.Rows[i].RetentionOn = res.Rows[i].SRCGbps / res.MaxAggGbps
		}
	}
	return res, nil
}

// FprintCCMatrix renders the matrix as a retention table.
func FprintCCMatrix(w io.Writer, res *CCMatrixResult) {
	fmt.Fprintln(w, "CC matrix: aggregate throughput retention on the Fig. 7 workload, SRC off vs on")
	fmt.Fprintf(w, "%-8s %12s %12s %10s %10s %8s\n",
		"scheme", "off (Gbps)", "on (Gbps)", "ret. off", "ret. on", "gain")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-8s %12.2f %12.2f %9.0f%% %9.0f%% %+6.0f%%\n",
			r.Scheme, r.BaselineGbps, r.SRCGbps,
			r.RetentionOff*100, r.RetentionOn*100, r.ImprovementPct)
	}
	fmt.Fprintf(w, "matrix max aggregate: %.2f Gbps\n", res.MaxAggGbps)
}
