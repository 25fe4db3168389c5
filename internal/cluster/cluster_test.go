package cluster

import (
	"strings"
	"sync"
	"testing"

	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/faults"
	"srcsim/internal/ml"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// targetArray is the per-target device sizing used by the congestion
// experiments (see DESIGN.md calibration notes).
func targetArray(cfg ssd.Config) ssd.Config {
	cfg.Channels = 4
	cfg.DiesPerChannel = 4
	return cfg
}

var (
	tpmOnce sync.Once
	tpmA    *core.TPM
	tpmErr  error
)

// sharedTPM trains one moderate-size TPM for all tests in this package.
func sharedTPM(t *testing.T) *core.TPM {
	t.Helper()
	tpmOnce.Do(func() {
		tpmA, _, tpmErr = devrun.TrainTPM(targetArray(ssd.ConfigA()), 1000, 42)
	})
	if tpmErr != nil {
		t.Fatal(tpmErr)
	}
	return tpmA
}

// vdiTrace is a small VDI-scale congestion workload.
func vdiTrace(t *testing.T, perDir int) *trace.Trace {
	t.Helper()
	tr, err := workload.Synthetic(workload.SyntheticConfig{
		Seed:      7,
		ReadCount: 2 * perDir, WriteCount: perDir,
		ReadInterArrival: 10 * sim.Microsecond, WriteInterArrival: 20 * sim.Microsecond,
		ReadInterArrivalSCV: 3.0, WriteInterArrivalSCV: 2.5,
		ReadACF1: 0.2, WriteACF1: 0.15,
		ReadMeanSize: 44 << 10, WriteMeanSize: 23 << 10,
		ReadSizeSCV: 1.8, WriteSizeSCV: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func congestionSpec() Spec {
	return Spec{
		Initiators: 1, Targets: 2,
		SSD:      targetArray(ssd.ConfigA()),
		LinkRate: 10e9,
	}
}

func TestModeStrings(t *testing.T) {
	if DCQCNOnly.String() != "DCQCN-Only" || DCQCNSRC.String() != "DCQCN-SRC" || SSQStatic.String() != "SSQ-Static" {
		t.Fatal("mode labels")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Spec{Mode: DCQCNSRC}); err == nil {
		t.Fatal("SRC without TPM should fail")
	}
	bad := congestionSpec()
	bad.SSD.PageSize = 1000
	if _, err := New(bad); err == nil {
		t.Fatal("invalid SSD config should fail")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	c, err := New(congestionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(&trace.Trace{}, nil); err == nil {
		t.Fatal("empty trace should error")
	}
}

func TestBaselineRunCompletes(t *testing.T) {
	c, err := New(congestionSpec())
	if err != nil {
		t.Fatal(err)
	}
	tr := vdiTrace(t, 600)
	res, err := c.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d/%d", res.Completed, res.Submitted)
	}
	if res.MeanReadGbps <= 0 || res.MeanWriteGbps <= 0 {
		t.Fatalf("throughputs %v/%v", res.MeanReadGbps, res.MeanWriteGbps)
	}
	if res.TotalCNPs == 0 {
		t.Fatal("congestion workload produced no CNPs")
	}
	if len(res.Pauses) == 0 {
		t.Fatal("pause series empty")
	}
	if len(res.WeightEvents) != 0 {
		t.Fatal("baseline must not adjust weights")
	}
}

// TestSRCImprovesAggregateThroughput is the repo's headline check: the
// Fig. 7 / Table IV result that DCQCN-SRC beats DCQCN-only on aggregated
// throughput under read-side congestion, by boosting writes while the
// network throttles reads.
func TestSRCImprovesAggregateThroughput(t *testing.T) {
	tpm := sharedTPM(t)
	tr := vdiTrace(t, 1500)
	base, src, err := CompareModes(congestionSpec(), tpm, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Completed != base.Submitted || src.Completed != src.Submitted {
		t.Fatalf("incomplete runs: %d/%d and %d/%d", base.Completed, base.Submitted, src.Completed, src.Submitted)
	}
	if len(src.WeightEvents) == 0 {
		t.Fatal("SRC never adjusted weights")
	}
	if src.MeanWriteGbps <= base.MeanWriteGbps*1.2 {
		t.Fatalf("SRC write throughput %.2f should clearly beat baseline %.2f",
			src.MeanWriteGbps, base.MeanWriteGbps)
	}
	if src.AggregatedGbps <= base.AggregatedGbps*1.05 {
		t.Fatalf("SRC aggregate %.2f should beat baseline %.2f",
			src.AggregatedGbps, base.AggregatedGbps)
	}
}

func TestSSQStaticMode(t *testing.T) {
	spec := congestionSpec()
	spec.Mode = SSQStatic
	spec.StaticWeight = 4
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range c.Targets {
		for _, s := range tn.SSQs {
			if s == nil || s.WeightRatio() != 4 {
				t.Fatal("static SSQ weights not applied")
			}
		}
	}
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d/%d", res.Completed, res.Submitted)
	}
}

func TestDevicesPerTargetArray(t *testing.T) {
	spec := congestionSpec()
	spec.DevicesPerTarget = 2
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Targets[0].Devs) != 2 {
		t.Fatalf("devices %d", len(c.Targets[0].Devs))
	}
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both devices should have seen work (LBA striping).
	for ti, tn := range c.Targets {
		for di, dev := range tn.Devs {
			if dev.FetchedCommands == 0 {
				t.Fatalf("target %d device %d idle", ti, di)
			}
		}
	}
	_ = res
}

func TestClosPlacementRuns(t *testing.T) {
	spec := congestionSpec()
	spec.UseClos = true
	spec.Clos.LinkRate = 10e9
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 200), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("Clos run incomplete: %d/%d", res.Completed, res.Submitted)
	}
}

func TestCustomAssignPolicy(t *testing.T) {
	spec := congestionSpec()
	spec.Targets = 2
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Send everything to target 0.
	onlyZero := func(req trace.Request, idx, inis, tgts int) (int, int) { return 0, 0 }
	if _, err := c.Run(vdiTrace(t, 200), onlyZero); err != nil {
		t.Fatal(err)
	}
	if c.Targets[0].T.ReadsServed == 0 {
		t.Fatal("target 0 served nothing")
	}
	if c.Targets[1].T.ReadsServed != 0 || c.Targets[1].T.WritesServed != 0 {
		t.Fatal("target 1 should be idle under custom assignment")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Result {
		c, err := New(congestionSpec())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(vdiTrace(t, 400), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AggregatedGbps != b.AggregatedGbps || a.TotalCNPs != b.TotalCNPs || a.DurationMs != b.DurationMs {
		t.Fatalf("nondeterministic cluster run: %+v vs %+v", a, b)
	}
}

func TestPauseSeriesSpikesUnderCongestion(t *testing.T) {
	c, err := New(congestionSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 1200), nil)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range res.Pauses {
		total += p
	}
	if total == 0 {
		t.Fatal("pause series empty under congestion")
	}
	if uint64(total) > res.TotalCNPs {
		t.Fatalf("pause series total %v exceeds CNP count %d", total, res.TotalCNPs)
	}
}

func TestMultiInitiatorRelievesCongestion(t *testing.T) {
	// Table IV's 4:4 observation: spreading the same load over more
	// initiators reduces congestion signals.
	tr := vdiTrace(t, 800)
	run := func(inis int) *Result {
		spec := congestionSpec()
		spec.Initiators = inis
		spec.Targets = 2
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	if four.TotalCNPs >= one.TotalCNPs {
		t.Fatalf("more initiators should relieve congestion: CNPs %d vs %d", four.TotalCNPs, one.TotalCNPs)
	}
}

// fakeTPM builds a cheap trained TPM for plumbing tests.
func fakeTPM(t *testing.T) *core.TPM {
	t.Helper()
	tpm := &core.TPM{NewRegressor: func() ml.Regressor { return &ml.KNNRegressor{K: 1} }}
	var samples []core.Sample
	for w := 1; w <= 8; w++ {
		ch := make([]float64, core.NumFeatures)
		ch[core.FeatReadFlowSpeed] = 1e9
		samples = append(samples, core.Sample{
			Ch: ch, W: float64(w),
			TputR: 16e9 / float64(w), TputW: 4e9 * float64(w),
		})
	}
	if err := tpm.Train(samples); err != nil {
		t.Fatal(err)
	}
	return tpm
}

func TestSRCPlumbingWithFakeTPM(t *testing.T) {
	spec := congestionSpec()
	spec.Mode = DCQCNSRC
	spec.TPM = fakeTPM(t)
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("incomplete: %d/%d", res.Completed, res.Submitted)
	}
	for _, tn := range c.Targets {
		if tn.Ctl == nil {
			t.Fatal("SRC controller missing")
		}
	}
}

// TestNewRejectsNegativeConfig: a negative value in a field whose zero
// means "use the default" fails cluster.New with an error naming the
// field, instead of being silently replaced by the default.
func TestNewRejectsNegativeConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		mod   func(*Spec)
	}{
		{"CMTBytes", func(s *Spec) { s.SSD.CMTBytes = -1 }},
		{"WriteCacheBytes", func(s *Spec) { s.SSD.WriteCacheBytes = -1 }},
		{"ChannelBandwidth", func(s *Spec) { s.SSD.ChannelBandwidth = -1 }},
		{"DRAMLatency", func(s *Spec) { s.SSD.DRAMLatency = -1 }},
		{"OverProvision", func(s *Spec) { s.SSD.OverProvision = -0.1 }},
		{"GCThreshold", func(s *Spec) { s.SSD.GCThreshold = -0.1 }},
		{"FallbackWeight", func(s *Spec) { s.SRC.FallbackWeight = -2 }},
		{"StaleAfter", func(s *Spec) { s.SRC.StaleAfter = -sim.Millisecond }},
		{"ObserveEvery", func(s *Spec) { s.SRC.Adaptive.ObserveEvery = -1 }},
		{"WindowSamples", func(s *Spec) { s.SRC.Adaptive.WindowSamples = -1 }},
		{"MinRetrainSamples", func(s *Spec) { s.SRC.Adaptive.MinRetrainSamples = -1 }},
		{"RetrainEvery", func(s *Spec) { s.SRC.Adaptive.RetrainEvery = -1 }},
		{"RetrainTrees", func(s *Spec) { s.SRC.Adaptive.RetrainTrees = -1 }},
		{"PromoteMargin", func(s *Spec) { s.SRC.Adaptive.PromoteMargin = -0.1 }},
		{"MaxRejects", func(s *Spec) { s.SRC.Adaptive.MaxRejects = -1 }},
		{"ErrWindow", func(s *Spec) { s.SRC.Adaptive.ErrWindow = -1 }},
		{"ErrDegrade", func(s *Spec) { s.SRC.Adaptive.ErrDegrade = -0.1 }},
		{"ErrHard", func(s *Spec) { s.SRC.Adaptive.ErrHard = -0.1 }},
		{"ErrHealthy", func(s *Spec) { s.SRC.Adaptive.ErrHealthy = -0.1 }},
		{"DwellTime", func(s *Spec) { s.SRC.Adaptive.DwellTime = -1 }},
		{"RecoverAfter", func(s *Spec) { s.SRC.Adaptive.RecoverAfter = -1 }},
		{"AIMDStep", func(s *Spec) { s.SRC.Adaptive.AIMDStep = -1 }},
		{"AIMDBackoff", func(s *Spec) { s.SRC.Adaptive.AIMDBackoff = -1.5 }},
		{"AIMDBackoff", func(s *Spec) { s.SRC.Adaptive.AIMDBackoff = 0.5 }},
		{"AIMDBackoff", func(s *Spec) { s.SRC.Adaptive.AIMDBackoff = 1 }},
	} {
		spec := congestionSpec()
		spec.Mode = DCQCNSRC
		spec.TPM = fakeTPM(t)
		tc.mod(&spec)
		_, err := New(spec)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s: New error %v, want one naming the field", tc.field, err)
		}
	}
	// Zero still means "use the default".
	spec := congestionSpec()
	spec.SSD.CMTBytes, spec.SRC.FallbackWeight, spec.SRC.StaleAfter = 0, 0, 0
	spec.SRC.Adaptive = core.AdaptiveConfig{Enabled: true}
	if _, err := New(spec); err != nil {
		t.Fatalf("zero values rejected: %v", err)
	}
}

// TestWithDefaultsRecoveryMerge: a schedule's Recovery block fills
// StaleAfter and FallbackWeight independently, each only where the Spec
// left it zero, so explicit Spec settings always win.
func TestWithDefaultsRecoveryMerge(t *testing.T) {
	ms := sim.Millisecond
	for _, tc := range []struct {
		name              string
		specStale, rStale sim.Time
		specFW, rFW       int
		wantStale         sim.Time
		wantFW            int
	}{
		{"schedule fills both", 0, 2 * ms, 0, 8, 2 * ms, 8},
		{"spec weight survives schedule stale_after", 0, 2 * ms, 4, 0, 2 * ms, 4},
		{"spec weight beats schedule weight", 0, 2 * ms, 4, 8, 2 * ms, 4},
		{"schedule weight without stale_after", 0, 0, 0, 8, 0, 8},
		{"spec stale_after beats schedule", ms, 2 * ms, 0, 8, ms, 8},
		{"spec wins both", ms, 2 * ms, 4, 8, ms, 4},
	} {
		var s Spec
		s.SRC.StaleAfter, s.SRC.FallbackWeight = tc.specStale, tc.specFW
		s.Faults = &faults.Schedule{Recovery: &faults.Recovery{StaleAfter: tc.rStale, FallbackWeight: tc.rFW}}
		got := s.withDefaults().SRC
		if got.StaleAfter != tc.wantStale || got.FallbackWeight != tc.wantFW {
			t.Errorf("%s: StaleAfter %v FallbackWeight %d, want %v %d",
				tc.name, got.StaleAfter, got.FallbackWeight, tc.wantStale, tc.wantFW)
		}
	}
}
