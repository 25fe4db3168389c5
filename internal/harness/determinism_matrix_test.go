package harness

// The determinism matrix: every harness experiment, at reduced scale,
// re-run under the four combinations of GOMAXPROCS (1 vs default) and
// event/packet/command pooling (on vs off). The simulation is
// single-threaded by construction and the free lists are supposed to be
// semantically invisible, so all four legs must produce byte-identical
// JSON summaries. Any divergence means scheduling order leaked into
// results (map iteration, goroutine interleaving in the parallel
// sweeps) or a recycled object carried state across uses.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/ml"
	"srcsim/internal/netsim"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/scenario"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
)

// digestRun is the matrix's view of one cluster run: the deterministic
// digest (summary plus raw per-bucket series) shared with the sweep
// orchestrator's per-job artifacts.
func digestRun(r *cluster.Result) cluster.Digest {
	return r.Digest()
}

// matrixSuite runs every experiment at reduced scale and returns each
// one's JSON summary, keyed by experiment name. The TPMs are trained
// once outside the matrix (they are an input, and full training is
// clamped to 2000 requests per run); training determinism is covered by
// the train-probe entry, which collects device samples and fits a fresh
// forest inside the leg, comparing the serialized model bytes.
// record=true attaches a fresh flight recorder to every cluster run;
// the recorder is read-only by design, so all digests must stay
// byte-identical to the recorder-off legs.
func matrixSuite(t *testing.T, tpmCong, tpm9 *core.TPM, record bool) map[string][]byte {
	t.Helper()
	var mods []func(*cluster.Spec)
	if record {
		mods = append(mods, func(s *cluster.Spec) {
			s.Recorder = timeseries.New(10*sim.Microsecond, 4096)
		})
	}
	out := map[string][]byte{}
	put := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		out[name] = b
	}

	put("fig2", Fig2Motivation(DefaultFig2Params()))

	cells, err := Fig5WeightSweep(ssd.ConfigA(), []int{4}, 300, 1)
	if err != nil {
		t.Fatalf("fig5: %v", err)
	}
	put("fig5", cells)

	// Train-probe: tiny spec set (Count below the full-training clamp),
	// parallel sample collection, fresh forest, serialized model bytes.
	// This stands in for the full TableI / TableIII / TPM-training runs,
	// whose per-run request counts are clamped to 2000 and would cost
	// ~20 s per leg: their sample-collection machinery is exactly this
	// code path, and the regressor fits below are pure functions of the
	// samples.
	specs := []devrun.WorkloadSpec{
		{InterArrival: 12 * sim.Microsecond, MeanSize: 24 << 10, Count: 600, Seed: 9},
		{InterArrival: 20 * sim.Microsecond, MeanSize: 36 << 10, Count: 600, Seed: 10},
	}
	samples, err := devrun.CollectSamples(ssd.ConfigA(), specs, []int{1, 4}, 0)
	if err != nil {
		t.Fatalf("train-probe: collect: %v", err)
	}
	probe := &core.TPM{}
	if err := probe.Train(samples); err != nil {
		t.Fatalf("train-probe: train: %v", err)
	}
	var model bytes.Buffer
	if err := probe.Save(&model); err != nil {
		t.Fatalf("train-probe: save: %v", err)
	}
	out["train-probe"] = model.Bytes()

	// Regressor probe: TableI's five estimator families fitted on the
	// leg-local samples; self-accuracy floats must match bitwise.
	factories := []func() ml.Regressor{
		func() ml.Regressor { return &ml.LinearRegression{} },
		func() ml.Regressor { return &ml.PolynomialRegression{} },
		func() ml.Regressor { return &ml.KNNRegressor{K: 5} },
		func() ml.Regressor { return &ml.DecisionTreeRegressor{Seed: 2} },
		func() ml.Regressor { return &ml.RandomForestRegressor{Trees: 20, Seed: 2} },
	}
	var accs []float64
	for _, factory := range factories {
		reg := &core.TPM{NewRegressor: factory}
		if err := reg.Train(samples); err != nil {
			t.Fatalf("regressor-probe: %v", err)
		}
		accs = append(accs, reg.Accuracy(samples))
	}
	put("regressor-probe", accs)

	res7, err := Fig7Throughput(tpmCong, 250, 7, netsim.CCDCQCN, mods...)
	if err != nil {
		t.Fatalf("fig7: %v", err)
	}
	put("fig7", []cluster.Digest{digestRun(res7.Baseline), digestRun(res7.SRC)})

	// Reduced-scale Fig. 7 under each newly registered CC scheme: the
	// registry seam, the ECN-echo and INT ack plumbing, and pooling of
	// INT-carrying packets must all stay byte-deterministic across the
	// matrix.
	for _, cc := range []struct {
		name string
		alg  netsim.CCAlg
	}{{"fig7-aimd", netsim.CCAIMD}, {"fig7-hpcc", netsim.CCHPCC}, {"fig7-pfc", netsim.CCPFC}} {
		resCC, err := Fig7Throughput(tpmCong, 150, 7, cc.alg, mods...)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		put(cc.name, []cluster.Digest{digestRun(resCC.Baseline), digestRun(resCC.SRC)})
	}

	events := []RateEvent{
		{At: 20 * sim.Millisecond, DemandGbps: 6},
		{At: 40 * sim.Millisecond, DemandGbps: 10},
	}
	res9, err := Fig9DynamicControl(tpm9, events, 60*sim.Millisecond, 5)
	if err != nil {
		t.Fatalf("fig9: %v", err)
	}
	put("fig9", res9)

	rows10, err := Fig10Intensity(tpmCong, 0.02, 13, netsim.CCDCQCN, mods...)
	if err != nil {
		t.Fatalf("fig10: %v", err)
	}
	var dig10 []cluster.Digest
	for _, r := range rows10 {
		dig10 = append(dig10, digestRun(r.Result.Baseline), digestRun(r.Result.SRC))
	}
	put("fig10", dig10)

	rowsIV, err := TableIV(tpmCong, nil, 0.02, 11, mods...)
	if err != nil {
		t.Fatalf("tableIV: %v", err)
	}
	put("tableIV", rowsIV)

	trc, err := VDITrace(7, 200)
	if err != nil {
		t.Fatalf("chaos trace: %v", err)
	}
	resC, err := ChaosSoak(trc)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	put("chaos", digestRun(resC))

	// Adaptive legs: the failover scenario exercises the whole ladder —
	// Static via telemetry staleness, the AIMD rung, retraining-driven
	// recovery — plus the oracle leg, under faults and retries. The
	// second leg pushes RetrainEvery past any horizon, pinning the model
	// at its seed configuration: adaptation must stay byte-deterministic
	// with retraining effectively disabled, and the leg must itself be
	// reproducible across the matrix.
	resA, err := AdaptFailover(tpmCong, 200, 7, mods...)
	if err != nil {
		t.Fatalf("adapt-failover: %v", err)
	}
	put("adapt-failover", resA)

	noRetrain := append(append([]func(*cluster.Spec){}, mods...), func(s *cluster.Spec) {
		s.SRC.Adaptive.RetrainEvery = 3600 * sim.Second
	})
	resA0, err := AdaptFailover(tpmCong, 200, 7, noRetrain...)
	if err != nil {
		t.Fatalf("adapt-failover-noretrain: %v", err)
	}
	put("adapt-failover-noretrain", resA0)

	trh, err := VDITrace(7, 150)
	if err != nil {
		t.Fatalf("hang trace: %v", err)
	}
	resH, err := HangSoak(trh, true)
	if err != nil {
		t.Fatalf("hang-retry: %v", err)
	}
	put("hang-retry", digestRun(resH))

	// Scenario leg: one library scenario end-to-end — the phase merge,
	// per-phase seeded generators, overlay anchoring, stream tagging,
	// and fault-offset rebasing must all reproduce byte-for-byte.
	scVDI, ok := scenario.Lookup("vdi-boot-storm")
	if !ok {
		t.Fatal("scenario leg: vdi-boot-storm missing from library")
	}
	resSC, err := RunScenario(tpmCong, scVDI.Build(7, 60), 7, netsim.CCDCQCN, mods...)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	put("scenario", resSC)

	// In-band control-plane leg: the lossy/reordering control channel,
	// a primary crash, and the standby takeover. The channel RNG is
	// seeded, so the entire message schedule — drops, reorder jitter,
	// retransmissions, the epoch ledger — must reproduce byte-for-byte
	// across the matrix.
	resCF, err := CtrlFailover(tpmCong, 150, 7, mods...)
	if err != nil {
		t.Fatalf("ctrl-failover: %v", err)
	}
	put("ctrl-failover", resCF)

	return out
}

// TestDeterminismMatrix asserts that every experiment's JSON summary is
// byte-identical across the GOMAXPROCS × pooling matrix.
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix re-runs every experiment four times; skipped with -short")
	}
	tpmCong, tpm9 := testTPMs(t)

	defaultProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(defaultProcs)
	prevPool := sim.PoolingEnabled()
	defer sim.SetPooling(prevPool)

	legs := []struct {
		name   string
		procs  int
		pool   bool
		record bool
	}{
		{"procs1-pool", 1, true, false},
		{"procsN-pool", defaultProcs, true, false},
		{"procs1-nopool", 1, false, false},
		{"procsN-nopool", defaultProcs, false, false},
		// Flight-recorder legs: the recorder samples every run but is
		// read-only, so results must match the recorder-off reference.
		{"procs1-pool-record", 1, true, true},
		{"procsN-nopool-record", defaultProcs, false, true},
	}

	var ref map[string][]byte
	for _, leg := range legs {
		runtime.GOMAXPROCS(leg.procs)
		sim.SetPooling(leg.pool)
		got := matrixSuite(t, tpmCong, tpm9, leg.record)
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d experiments, reference has %d", leg.name, len(got), len(ref))
		}
		for name, want := range ref {
			if !bytes.Equal(got[name], want) {
				t.Errorf("%s: %s summary diverged from %s leg:\nref: %s\ngot: %s",
					leg.name, name, legs[0].name, clip(want), clip(got[name]))
			}
		}
	}
}

// clip truncates a JSON blob for failure output.
func clip(b []byte) []byte {
	if len(b) > 600 {
		return append(append([]byte{}, b[:600]...), "..."...)
	}
	return b
}
