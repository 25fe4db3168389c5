package harness

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/workload"
)

var (
	tpmOnce sync.Once
	tpmCong *core.TPM
	tpm9    *core.TPM
	tpmErr  error
)

// testTPMs trains the two shared models once for the whole package.
// Training runs behind the content-addressed artifact cache (see
// devrun.TrainTPMCached), so repeated `go test ./...` invocations load
// the stored forests instead of re-training them; set
// SRCSIM_TPM_CACHE=off for a cold run (CI does, on its main test step).
func testTPMs(t *testing.T) (*core.TPM, *core.TPM) {
	t.Helper()
	tpmOnce.Do(func() {
		c := devrun.TPMCacheFromEnv()
		tpmCong, _, tpmErr = TPMCongestion.Train(c, 1000, 42)
		if tpmErr != nil {
			return
		}
		tpm9, _, tpmErr = TPMFig9.Train(c, 1000, 43)
	})
	if tpmErr != nil {
		t.Fatal(tpmErr)
	}
	return tpmCong, tpm9
}

func TestFig2MatchesPaper(t *testing.T) {
	rows := Fig2Motivation(DefaultFig2Params())
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	want := map[string][3]float64{
		"no congestion": {6, 3, 9},
		"DCQCN":         {3, 3, 6},
		"SRC":           {3, 6, 9},
	}
	for _, r := range rows {
		w, ok := want[r.Scenario]
		if !ok {
			t.Fatalf("unexpected scenario %q", r.Scenario)
		}
		if r.Read != w[0] || r.Write != w[1] || r.Aggregate != w[2] {
			t.Fatalf("%s: got %v/%v/%v want %v", r.Scenario, r.Read, r.Write, r.Aggregate, w)
		}
	}
	var buf bytes.Buffer
	FprintFig2(&buf, rows)
	if !strings.Contains(buf.String(), "DCQCN") {
		t.Fatal("Fig2 print missing rows")
	}
}

func TestFig2CustomParams(t *testing.T) {
	// A milder 25% cut.
	rows := Fig2Motivation(Fig2Params{SSDTotalIOPS: 9, BaselineRead: 6, NetCap: 6, CutFactor: 0.75})
	if rows[1].Aggregate >= rows[0].Aggregate {
		t.Fatal("congestion should reduce DCQCN aggregate")
	}
	if rows[2].Aggregate != rows[0].Aggregate {
		t.Fatal("SRC should preserve the aggregate")
	}
}

func TestFig5SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 5 sweep; skipped with -short")
	}
	cells, err := Fig5WeightSweep(ssd.ConfigA(), []int{1, 4}, 1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 32 { // 16 workloads x 2 ratios
		t.Fatalf("%d cells", len(cells))
	}
	// Heaviest cell: w effective. Lightest cell: w ineffective.
	find := func(ia sim.Time, size, w int) Fig5Cell {
		for _, c := range cells {
			if c.InterArrival == ia && c.MeanSize == size && c.W == w {
				return c
			}
		}
		t.Fatalf("cell %v/%d/%d missing", ia, size, w)
		return Fig5Cell{}
	}
	h1 := find(10*sim.Microsecond, 40<<10, 1)
	h4 := find(10*sim.Microsecond, 40<<10, 4)
	if h4.ReadGbps >= h1.ReadGbps*0.8 || h4.WriteGbps <= h1.WriteGbps {
		t.Fatalf("heavy cell not shaped by w: %v -> %v", h1, h4)
	}
	l1 := find(25*sim.Microsecond, 10<<10, 1)
	l4 := find(25*sim.Microsecond, 10<<10, 4)
	if math.Abs(l4.ReadGbps-l1.ReadGbps)/l1.ReadGbps > 0.1 {
		t.Fatalf("light cell should be flat: %v vs %v", l1, l4)
	}
	var buf bytes.Buffer
	FprintFig5(&buf, cells)
	if !strings.Contains(buf.String(), "weight ratios") {
		t.Fatal("Fig5 print")
	}
}

func TestTableIRandomForestWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full TableI training; skipped with -short")
	}
	rows, err := TableI(ssd.ConfigA(), 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Model] = r.Accuracy
	}
	rf := byName["Random Forest Regression"]
	if rf < 0.85 {
		t.Fatalf("RF accuracy %v, want >= 0.85 (paper: 0.94)", rf)
	}
	// The paper's qualitative ordering: tree ensembles beat linear.
	if rf <= byName["Linear Regression"] {
		t.Fatalf("RF (%v) should beat linear (%v)", rf, byName["Linear Regression"])
	}
	var buf bytes.Buffer
	FprintTableI(&buf, rows)
	if !strings.Contains(buf.String(), "Random Forest") {
		t.Fatal("TableI print")
	}
}

func TestTableIIIAccuracies(t *testing.T) {
	if testing.Short() {
		t.Skip("full TableIII cross-validation; skipped with -short")
	}
	rows, err := TableIII(ssd.ConfigA(), 800, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.Accuracy) {
			continue // class drew no traces from the pool at this seed
		}
		if r.Accuracy < 0.7 {
			t.Errorf("%v: accuracy %v below 0.7 (paper: 0.89-0.98)", r.Class, r.Accuracy)
		}
	}
	var buf bytes.Buffer
	FprintTableIII(&buf, rows)
	if !strings.Contains(buf.String(), "low size SCV") {
		t.Fatal("TableIII print")
	}
}

func TestFig7SRCBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Fig. 7 A/B run; skipped with -short")
	}
	tpm, _ := testTPMs(t)
	res, err := Fig7Throughput(tpm, 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.SRC.MeanWriteGbps <= res.Baseline.MeanWriteGbps {
		t.Fatalf("SRC write %.2f should beat baseline %.2f",
			res.SRC.MeanWriteGbps, res.Baseline.MeanWriteGbps)
	}
	if res.Improvement() <= 0 {
		t.Fatalf("SRC aggregate improvement %.2f should be positive", res.Improvement())
	}
	// Fig. 8 companion: congestion produced pause signals in both modes.
	if res.Baseline.TotalCNPs == 0 || res.SRC.TotalCNPs == 0 {
		t.Fatal("no pause signals recorded")
	}
	var buf bytes.Buffer
	FprintFig7(&buf, res)
	FprintFig8(&buf, res)
	out := buf.String()
	if !strings.Contains(out, "aggregated") || !strings.Contains(out, "pause number") {
		t.Fatal("Fig7/Fig8 print")
	}
}

func TestFig9ConvergesWithinPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 9 horizon; skipped with -short")
	}
	_, tpm := testTPMs(t)
	res, err := Fig9DynamicControl(tpm, nil, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 4 {
		t.Fatalf("%d events", len(res.Events))
	}
	converged := 0
	for _, e := range res.Events {
		if e.ConvergeDelay >= 0 {
			converged++
			if e.ConvergeDelay > 30*sim.Millisecond {
				t.Errorf("event at %v converged too slowly: %v", e.At, e.ConvergeDelay)
			}
		}
		if e.AppliedW < 1 {
			t.Errorf("event at %v applied no weight", e.At)
		}
	}
	if converged < 3 {
		t.Fatalf("only %d/4 events converged", converged)
	}
	// Paper: average control delay ~7.3 ms; accept the same order.
	if avg := res.AverageConvergence(); avg < 0 || avg > 20*sim.Millisecond {
		t.Fatalf("average convergence %v out of range", avg)
	}
	// Tightening demand must raise w above the relaxed setting.
	if res.Events[1].AppliedW <= res.Events[3].AppliedW {
		t.Fatalf("w at 3G demand (%d) should exceed w at 10G demand (%d)",
			res.Events[1].AppliedW, res.Events[3].AppliedW)
	}
	var buf bytes.Buffer
	FprintFig9(&buf, res)
	if !strings.Contains(buf.String(), "convergence") {
		t.Fatal("Fig9 print")
	}
}

func TestFig10LightIsNeutralHeavyGains(t *testing.T) {
	if testing.Short() {
		t.Skip("three full intensity A/B runs; skipped with -short")
	}
	tpm, _ := testTPMs(t)
	rows, err := Fig10Intensity(tpm, 0.06, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	light := rows[0].Result
	if math.Abs(light.Improvement()) > 0.05 {
		t.Fatalf("light workload should show no visible difference, got %+.2f%%",
			light.Improvement()*100)
	}
	heavy := rows[2].Result
	if heavy.SRC.MeanWriteGbps <= heavy.Baseline.MeanWriteGbps {
		t.Fatalf("heavy: SRC write %.2f should beat baseline %.2f",
			heavy.SRC.MeanWriteGbps, heavy.Baseline.MeanWriteGbps)
	}
	// Reads under SRC should stay aligned with the baseline (within 15%).
	if math.Abs(heavy.SRC.MeanReadGbps-heavy.Baseline.MeanReadGbps) > 0.15*heavy.Baseline.MeanReadGbps {
		t.Fatalf("heavy: SRC read %.2f diverged from baseline %.2f",
			heavy.SRC.MeanReadGbps, heavy.Baseline.MeanReadGbps)
	}
	var buf bytes.Buffer
	FprintFig10(&buf, rows)
	if !strings.Contains(buf.String(), "light") {
		t.Fatal("Fig10 print")
	}
}

func TestTableIVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("four full in-cast A/B runs; skipped with -short")
	}
	tpm, _ := testTPMs(t)
	rows, err := TableIV(tpm, nil, 0.08, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper's shape: improvement fades as the in-cast ratio grows and
	// vanishes with matching initiators.
	if rows[0].Improvement <= 0.03 {
		t.Fatalf("2:1 improvement %.2f should be clearly positive", rows[0].Improvement)
	}
	if rows[0].Improvement < rows[2].Improvement {
		t.Fatalf("2:1 (%.2f) should beat 4:1 (%.2f)", rows[0].Improvement, rows[2].Improvement)
	}
	if math.Abs(rows[3].Improvement) > 0.05 {
		t.Fatalf("4:4 improvement %.2f should be ~0", rows[3].Improvement)
	}
	var buf bytes.Buffer
	FprintTableIV(&buf, rows)
	if !strings.Contains(buf.String(), "In-cast") {
		t.Fatal("TableIV print")
	}
}

func TestFeatureImportanceFlowSpeedDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the shared TPM training; skipped with -short")
	}
	tpm, _ := testTPMs(t)
	names, weights, ok := tpm.FeatureImportances()
	if !ok {
		t.Fatal("importances unavailable")
	}
	var flow, arrivalRelated, scv, total float64
	for i, n := range names {
		total += weights[i]
		switch {
		case strings.Contains(n, "flow_speed"):
			flow += weights[i]
			arrivalRelated += weights[i]
		case strings.Contains(n, "mean_size"), strings.Contains(n, "mean_interarrival"):
			arrivalRelated += weights[i]
		case strings.Contains(n, "scv"):
			scv += weights[i]
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importances sum to %v", total)
	}
	// The paper attributes 0.39 to arrival flow speed. Our training grid
	// varies size and inter-arrival as independent factors, so the
	// forest splits the same information across flow speed and its
	// constituents; require the arrival-rate family to dominate and the
	// flow-speed features to matter more than the burstiness (SCV) ones.
	// EXPERIMENTS.md records the discrepancy.
	if arrivalRelated < 0.35 {
		t.Fatalf("arrival-rate-related importance %.2f, want >= 0.35", arrivalRelated)
	}
	if flow < 0.05 {
		t.Fatalf("flow-speed importance %.2f negligible", flow)
	}
}

func TestVDITraceStatistics(t *testing.T) {
	tr, err := VDITrace(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 6000 {
		t.Fatalf("len %d (want 2:1 reads:writes)", tr.Len())
	}
}

func TestFig10TracePanicsOnBadLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad level should panic")
		}
	}()
	Fig10Trace(workload.IntensityLevel(99), 0.01, 1) //nolint:errcheck // panics before returning
}
