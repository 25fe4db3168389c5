package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "c")
	g := r.Gauge("x", "g")
	h := r.Histogram("x", "h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// None of these may panic.
	c.Add(1)
	c.Inc()
	g.Set(3)
	g.SetMax(4)
	g.SetMin(2)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if r.NumSeries() != 0 {
		t.Fatal("nil registry has no series")
	}
	if snap := r.Snapshot(); snap.NumSeries() != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryHandleIdentityAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("netsim", "ecn_marks", L("mode", "base"))
	b := r.Counter("netsim", "ecn_marks", L("mode", "base"))
	if a != b {
		t.Fatal("same series must resolve to the same handle")
	}
	other := r.Counter("netsim", "ecn_marks", L("mode", "src"))
	if a == other {
		t.Fatal("different labels must be different series")
	}
	// Label order must not matter.
	x := r.Gauge("c", "g", L("a", "1"), L("b", "2"))
	y := r.Gauge("c", "g", L("b", "2"), L("a", "1"))
	if x != y {
		t.Fatal("label order changed series identity")
	}
	a.Add(2)
	a.Inc()
	if a.Value() != 3 {
		t.Fatalf("counter value %v, want 3", a.Value())
	}
	if r.NumSeries() != 3 {
		t.Fatalf("series count %d, want 3", r.NumSeries())
	}
}

func TestGaugeWatermarks(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("x", "hw")
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax kept %v, want 5", g.Value())
	}
	lo := r.Gauge("x", "lw")
	lo.SetMin(5)
	lo.SetMin(7)
	if lo.Value() != 5 {
		t.Fatalf("SetMin kept %v, want 5", lo.Value())
	}
	// First SetMin must latch even if larger than zero value.
	lo2 := r.Gauge("x", "lw2")
	lo2.SetMin(9)
	if lo2.Value() != 9 {
		t.Fatalf("first SetMin %v, want 9", lo2.Value())
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("a", "c1").Add(1)
		r.Counter("b", "c2", L("k", "v")).Add(2)
		r.Gauge("a", "g").Set(4.5)
		h := r.Histogram("a", "h")
		for i := 1; i <= 100; i++ {
			h.Observe(float64(i))
		}
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("snapshot JSON not deterministic")
	}
	var snap Snapshot
	if err := json.Unmarshal(b1.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if snap.Counters["b/c2{k=v}"] != 2 {
		t.Fatalf("labelled counter missing from snapshot: %+v", snap.Counters)
	}
	hs, ok := snap.Histograms["a/h"]
	if !ok || hs.Count != 100 || hs.Max != 100 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	if snap.NumSeries() != 4 {
		t.Fatalf("snapshot series %d, want 4", snap.NumSeries())
	}
}

func TestWithoutComponentDropsOnlyThatComponent(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim", "events_processed").Add(10)
	r.Gauge("sim", "heap_high_water").Set(5)
	r.Counter("netsim", "ecn_marks").Add(3)
	r.Histogram("ssd", "gc_ms").Observe(2)
	snap := r.Snapshot().WithoutComponent("sim")
	if snap.NumSeries() != 2 {
		t.Fatalf("%d series after filter, want 2", snap.NumSeries())
	}
	if _, ok := snap.Counters["sim/events_processed"]; ok {
		t.Fatal("sim counter survived")
	}
	if snap.Gauges != nil {
		t.Fatal("empty gauge map should collapse to nil for stable JSON")
	}
	if snap.Counters["netsim/ecn_marks"] != 3 {
		t.Fatal("unrelated counter lost")
	}
	if snap.Histograms["ssd/gc_ms"].Count != 1 {
		t.Fatal("unrelated histogram lost")
	}
}

func TestMergeSnapshotsSemantics(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Counter("netsim", "cnps").Add(2)
	rb.Counter("netsim", "cnps").Add(5)
	ra.Gauge("nvme", "occupancy").Set(7)
	rb.Gauge("nvme", "occupancy").Set(3)
	for _, v := range []float64{1, 2, 3} {
		ra.Histogram("lat", "ms").Observe(v)
	}
	rb.Histogram("lat", "ms").Observe(9)
	m := MergeSnapshots(ra.Snapshot(), rb.Snapshot())
	if m.Counters["netsim/cnps"] != 7 {
		t.Fatalf("counter merge = %v, want sum 7", m.Counters["netsim/cnps"])
	}
	if m.Gauges["nvme/occupancy"] != 7 {
		t.Fatalf("gauge merge = %v, want max 7", m.Gauges["nvme/occupancy"])
	}
	h := m.Histograms["lat/ms"]
	if h.Count != 4 || h.Min != 1 || h.Max != 9 {
		t.Fatalf("histogram merge = %+v", h)
	}
	if want := (1.0 + 2 + 3 + 9) / 4; h.Mean != want {
		t.Fatalf("merged mean %v, want %v", h.Mean, want)
	}
	// A series present in only one snapshot carries over untouched.
	if MergeSnapshots(ra.Snapshot()).Counters["netsim/cnps"] != 2 {
		t.Fatal("single-snapshot merge changed values")
	}
	if got := MergeSnapshots(); got.NumSeries() != 0 {
		t.Fatal("empty merge should be empty")
	}
}

// Merging is order-independent for everything except the quantile
// approximation: counters, gauges, histogram count/mean/min/max must
// not depend on which campaign job finished first.
func TestMergeSnapshotsOrderIndependence(t *testing.T) {
	mk := func(c float64, g float64, obsv []float64) Snapshot {
		r := NewRegistry()
		r.Counter("netsim", "cnps").Add(c)
		r.Gauge("nvme", "occupancy").Set(g)
		h := r.Histogram("lat", "ms")
		for _, v := range obsv {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := mk(2, 7, []float64{1, 2, 3})
	b := mk(5, 3, []float64{9})
	c := mk(1, 9, []float64{0.5, 20})

	ab := MergeSnapshots(a, b, c)
	ba := MergeSnapshots(c, b, a)
	if ab.Counters["netsim/cnps"] != ba.Counters["netsim/cnps"] {
		t.Fatal("counter merge order-dependent")
	}
	if ab.Gauges["nvme/occupancy"] != ba.Gauges["nvme/occupancy"] {
		t.Fatal("gauge merge order-dependent")
	}
	ha, hb := ab.Histograms["lat/ms"], ba.Histograms["lat/ms"]
	if ha.Count != hb.Count || ha.Min != hb.Min || ha.Max != hb.Max {
		t.Fatalf("histogram exact fields order-dependent: %+v vs %+v", ha, hb)
	}
	if diff := ha.Mean - hb.Mean; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("histogram mean order-dependent: %v vs %v", ha.Mean, hb.Mean)
	}
}

// The sweep's metrics.json pipeline — strip the wall-clock "sim"
// component per job, then merge in job order — must be byte-stable
// under JSON round-trips of the intermediate snapshots, which is
// exactly what resuming from on-disk artifacts does.
func TestMergeAfterWithoutComponentByteStable(t *testing.T) {
	mk := func(seed float64) Snapshot {
		r := NewRegistry()
		r.Counter("sim", "events_processed").Add(seed * 100)
		r.Gauge("sim", "heap_high_water").Set(seed)
		r.Counter("netsim", "ecn_marks").Add(seed)
		r.Gauge("core", "weight_ratio").Set(seed + 1)
		h := r.Histogram("ssd", "lat_us")
		for i := 0; i < int(seed)+3; i++ {
			h.Observe(seed*10 + float64(i))
		}
		return r.Snapshot().WithoutComponent("sim")
	}

	encode := func(s Snapshot) []byte {
		b, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	direct := MergeSnapshots(mk(1), mk(2), mk(3))
	for k := range direct.Counters {
		if k == "sim/events_processed" {
			t.Fatal("sim component leaked through merge")
		}
	}

	// Round-trip each per-job snapshot through JSON (artifact files),
	// re-merge, and require identical bytes.
	var rt []Snapshot
	for _, s := range []Snapshot{mk(1), mk(2), mk(3)} {
		var back Snapshot
		if err := json.Unmarshal(encode(s), &back); err != nil {
			t.Fatal(err)
		}
		rt = append(rt, back)
	}
	resumed := MergeSnapshots(rt...)
	if !bytes.Equal(encode(direct), encode(resumed)) {
		t.Fatalf("merge not byte-stable across artifact round-trip:\n%s\n---\n%s",
			encode(direct), encode(resumed))
	}

	// Repeating the whole pipeline is deterministic byte-for-byte.
	again := MergeSnapshots(mk(1), mk(2), mk(3))
	if !bytes.Equal(encode(direct), encode(again)) {
		t.Fatal("merge pipeline not deterministic")
	}
}

func TestReadThroughRegistrationsSum(t *testing.T) {
	r := NewRegistry()
	a, b := uint64(2), uint64(5)
	r.CounterFunc("ssd", "reads", U64(&a), L("mode", "m"))
	r.CounterFunc("ssd", "reads", U64(&b), L("mode", "m"))
	r.GaugeFunc("nvmeof", "inflight", Probe, func() float64 { return 3 })
	r.GaugeFunc("nvmeof", "inflight", Probe, func() float64 { return 4 })
	snap := r.Snapshot()
	if got := snap.Counters["ssd/reads{mode=m}"]; got != 7 {
		t.Fatalf("counter registrations read %v, want 7", got)
	}
	if got := snap.Gauges["nvmeof/inflight"]; got != 7 {
		t.Fatalf("probe registrations read %v, want 7", got)
	}
	a = 10 // snapshots read the field, not a copy
	if got := r.Snapshot().Counters["ssd/reads{mode=m}"]; got != 15 {
		t.Fatalf("counter after field update reads %v, want 15", got)
	}
}

func TestReadThroughFoldMatchesAddAccumulation(t *testing.T) {
	runs := [][]uint64{{3, 4}, {5}}
	handles, funcs := NewRegistry(), NewRegistry()
	for _, fields := range runs {
		for i := range fields {
			handles.Counter("netsim", "ecn_marks").Add(float64(fields[i]))
			funcs.CounterFunc("netsim", "ecn_marks", U64(&fields[i]))
		}
		funcs.Fold()
	}
	want := handles.Snapshot()
	if got := funcs.Snapshot(); got.Counters["netsim/ecn_marks"] != 12 || !reflect.DeepEqual(got, want) {
		t.Fatalf("folded runs %+v, Add accumulation %+v", got, want)
	}
}

func TestReadThroughGaugesFoldAsWatermarks(t *testing.T) {
	r := NewRegistry()
	run := func(hi, lo, last []float64) {
		for i := range hi {
			hi, lo, last := hi[i], lo[i], last[i]
			r.GaugeFunc("ssd", "peak", Max, func() float64 { return hi })
			r.GaugeFunc("nvmeof", "credit_low", Min, func() float64 { return lo })
			r.GaugeFunc("ctrlplane", "epoch", Last, func() float64 { return last })
		}
		r.Fold()
	}
	run([]float64{4, 9}, []float64{-3, 2}, []float64{1, 2})
	run([]float64{6}, []float64{5}, []float64{3})
	g := r.Snapshot().Gauges
	if g["ssd/peak"] != 9 || g["nvmeof/credit_low"] != -3 || g["ctrlplane/epoch"] != 3 {
		t.Fatalf("watermarks %v, want peak 9, credit_low -3, epoch 3", g)
	}
}

func TestReadThroughFoldDropsProbesAndClosures(t *testing.T) {
	r := NewRegistry()
	folded := false
	read := func() float64 {
		if folded {
			t.Fatal("closure read after the fold")
		}
		return 1
	}
	r.CounterFunc("netsim", "pfc_pauses", read)
	r.GaugeFunc("ssd", "write_amplification", Max, read)
	r.GaugeFunc("netsim", "switch_queue_bytes_total", Probe, read)
	if n := r.NumSeries(); n != 3 {
		t.Fatalf("%d live series, want 3", n)
	}
	r.Fold()
	folded = true
	snap := r.Snapshot()
	if _, ok := snap.Gauges["netsim/switch_queue_bytes_total"]; ok {
		t.Fatal("recorder-only gauge stored by the fold")
	}
	if snap.Counters["netsim/pfc_pauses"] != 1 || snap.Gauges["ssd/write_amplification"] != 1 {
		t.Fatalf("folded values %+v", snap)
	}
	if len(r.funcs) != 0 {
		t.Fatalf("%d read-through series left after the fold", len(r.funcs))
	}
	var nilReg *Registry
	nilReg.CounterFunc("a", "b", read)
	nilReg.Fold()
}
