package timeseries

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	eng := sim.NewEngine()
	stop := r.Start(eng, nil)
	eng.Schedule(10, func() {})
	eng.RunUntilIdle()
	stop()
	if r.NumSeries() != 0 || r.Ticks() != 0 {
		t.Fatal("nil recorder recorded something")
	}
	if d := r.Dump(0); d != nil {
		t.Fatalf("nil recorder dump %v", d)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil recorder CSV: %v %q", err, buf.String())
	}
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil recorder JSONL: %v %q", err, buf.String())
	}
}

func TestRecorderSamplesOnSimClock(t *testing.T) {
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	cnt := reg.Counter("c", "events")
	g := reg.Gauge("c", "level")

	// Model traffic: bump the counter every 7 ticks, move the gauge once.
	eng.Ticker(7, func() { cnt.Inc() })
	g.Set(3)
	eng.Schedule(25, func() { g.Set(8) })
	eng.Schedule(60, func() { eng.Stop() })

	r := New(10, 0)
	stop := r.Start(eng, reg)
	eng.RunUntilIdle()
	stop()

	if r.Ticks() == 0 {
		t.Fatal("no sample ticks")
	}
	dump := r.Dump(0)
	byName := map[string]SeriesDump{}
	for _, d := range dump {
		byName[d.Name] = d
	}
	ev, ok := byName["events"]
	if !ok {
		t.Fatalf("counter series missing; have %v", names(dump))
	}
	if ev.Kind != "counter" {
		t.Fatalf("kind %q", ev.Kind)
	}
	var total float64
	for _, v := range ev.V {
		if v <= 0 {
			t.Fatalf("counter delta %v not positive", v)
		}
		total += v
	}
	if total != cnt.Value() {
		t.Fatalf("deltas sum to %v, counter at %v", total, cnt.Value())
	}
	lv, ok := byName["level"]
	if !ok {
		t.Fatal("gauge series missing")
	}
	// Change-driven: exactly two gauge samples (3 at start, 8 after t=25).
	if len(lv.V) != 2 || lv.V[0] != 3 || lv.V[1] != 8 {
		t.Fatalf("gauge samples %v, want [3 8]", lv.V)
	}
	// Timestamps non-decreasing everywhere.
	for _, d := range dump {
		for i := 1; i < len(d.T); i++ {
			if d.T[i] < d.T[i-1] {
				t.Fatalf("%s/%s: t[%d]=%d < t[%d]=%d", d.Track, d.Name, i, d.T[i], i-1, d.T[i-1])
			}
		}
	}
}

func TestRecorderProbesAndFinalFlush(t *testing.T) {
	eng := sim.NewEngine()
	level := 0.0
	eng.Schedule(5, func() { level = 1 })
	eng.Schedule(34, func() { level = 2 }) // between ticks; caught by the stop() flush
	eng.Schedule(35, func() { eng.Stop() })

	reg := obs.NewRegistry()
	reg.GaugeFunc("probe", "level", obs.Probe, func() float64 { return level })
	r := New(10, 0)
	stop := r.Start(eng, reg)
	eng.RunUntilIdle()
	stop()

	d := r.Dump(0)
	if len(d) != 1 {
		t.Fatalf("series %v", names(d))
	}
	vs := d[0].V
	if len(vs) != 3 || vs[0] != 0 || vs[1] != 1 || vs[2] != 2 {
		t.Fatalf("probe samples %v, want [0 1 2]", vs)
	}
	if last := d[0].T[len(d[0].T)-1]; last != 35 {
		t.Fatalf("flush sample at %d, want 35 (drain time)", last)
	}
}

func TestRingEviction(t *testing.T) {
	eng := sim.NewEngine()
	v := 0.0
	eng.Ticker(1, func() { v++ })
	eng.Schedule(100, func() { eng.Stop() })
	reg := obs.NewRegistry()
	reg.GaugeFunc("p", "v", obs.Probe, func() float64 { return v })
	r := New(1, 8)
	stop := r.Start(eng, reg)
	eng.RunUntilIdle()
	stop()
	d := r.Dump(0)[0]
	if len(d.V) != 8 {
		t.Fatalf("ring kept %d samples, want 8", len(d.V))
	}
	if d.Dropped == 0 {
		t.Fatal("no drops counted")
	}
	// The retained window is the most recent one, in order.
	for i := 1; i < len(d.V); i++ {
		if d.V[i] != d.V[i-1]+1 {
			t.Fatalf("ring order broken: %v", d.V)
		}
	}
	if d.V[len(d.V)-1] != v {
		t.Fatalf("last sample %v, want %v", d.V[len(d.V)-1], v)
	}
	// Dump with a cap trims from the front.
	trimmed := r.Dump(3)[0]
	if len(trimmed.V) != 3 || trimmed.V[2] != d.V[len(d.V)-1] {
		t.Fatalf("Dump(3) = %v", trimmed.V)
	}
}

func TestExportsDeterministicAndParseable(t *testing.T) {
	run := func() (*Recorder, string, string) {
		eng := sim.NewEngine()
		reg := obs.NewRegistry()
		a := reg.Counter("x", "a", obs.L("mode", "m"))
		h := reg.Histogram("x", "lat")
		eng.Ticker(3, func() { a.Inc(); h.Observe(float64(eng.Now())) })
		eng.Schedule(30, func() { eng.Stop() })
		reg.GaugeFunc("z", "probe", obs.Probe, func() float64 { return float64(eng.Now()) })
		r := New(5, 0)
		stop := r.Start(eng, reg)
		eng.RunUntilIdle()
		stop()
		var csv, jsonl bytes.Buffer
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return r, csv.String(), jsonl.String()
	}
	r1, csv1, jsonl1 := run()
	_, csv2, jsonl2 := run()
	if csv1 != csv2 {
		t.Fatal("CSV export not deterministic across identical runs")
	}
	if jsonl1 != jsonl2 {
		t.Fatal("JSONL export not deterministic across identical runs")
	}
	if !strings.HasPrefix(csv1, "track,name,kind,t_ns,value\n") {
		t.Fatalf("CSV header: %q", csv1[:40])
	}
	for _, line := range strings.Split(strings.TrimSpace(jsonl1), "\n") {
		var d SeriesDump
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("JSONL line %q: %v", line, err)
		}
	}
	// Histogram quantile sub-series present.
	found := false
	for _, d := range r1.Dump(0) {
		if strings.HasSuffix(d.Name, ":p999") {
			found = true
		}
	}
	if !found {
		t.Fatal("no :p999 sub-series recorded")
	}
}

func TestChromeCounterExport(t *testing.T) {
	eng := sim.NewEngine()
	total := 0.0
	eng.Ticker(2, func() { total += 4 })
	eng.Schedule(20, func() { eng.Stop() })
	reg := obs.NewRegistry()
	reg.CounterFunc("net", "bytes", func() float64 { return total })
	r := New(10, 0)
	stop := r.Start(eng, reg)
	eng.RunUntilIdle()
	stop()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	counters := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "C" {
			counters++
		}
	}
	if counters == 0 {
		t.Fatal("no ph:\"C\" counter events in chrome trace")
	}
}

func names(ds []SeriesDump) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Track+"/"+d.Name)
	}
	return out
}

// TestCounterAcrossFreshRegistries: one recorder shared by runs that
// each bring a private registry sees the second run's counter restart
// from zero; the recorded deltas still sum to both runs' totals.
func TestCounterAcrossFreshRegistries(t *testing.T) {
	r := New(10, 0)
	for _, total := range []float64{5, 3} {
		eng := sim.NewEngine()
		reg := obs.NewRegistry()
		n := 0.0
		reg.CounterFunc("faults", "injected", func() float64 { return n })
		eng.Schedule(15, func() { n = total })
		eng.Schedule(30, func() { eng.Stop() })
		stop := r.Start(eng, reg)
		eng.RunUntilIdle()
		stop()
	}
	d := r.Dump(0)
	if len(d) != 1 || d[0].Track != "faults" || d[0].Name != "injected" {
		t.Fatalf("series %v", names(d))
	}
	if vs := d[0].V; len(vs) != 2 || vs[0] != 5 || vs[1] != 3 {
		t.Fatalf("deltas %v, want [5 3]", vs)
	}
}
