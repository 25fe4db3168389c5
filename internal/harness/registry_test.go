package harness

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestRegistryListing asserts the registry enumerates every experiment
// the front-ends expose, in stable listing order.
func TestRegistryListing(t *testing.T) {
	want := []string{"fig2", "fig5", "fig7", "fig9", "fig10", "table4", "chaos-soak",
		"adapt-aging", "adapt-phase", "adapt-failover",
		"ctrl-degradation", "ctrl-failover", "cc-matrix", "replay", "scenario",
		"table1", "table3", "tpm-importance"}
	got := ExperimentNames()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
	for _, name := range want {
		e, ok := LookupExperiment(name)
		if !ok {
			t.Fatalf("lookup %s failed", name)
		}
		if e.Run == nil {
			t.Fatalf("%s has no Run", name)
		}
		if e.Title == "" {
			t.Fatalf("%s has no title", name)
		}
	}
	if _, ok := LookupExperiment("fig404"); ok {
		t.Fatal("lookup of unregistered name succeeded")
	}

	var b strings.Builder
	FprintExperiments(&b)
	for _, name := range want {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("listing missing %s:\n%s", name, b.String())
		}
	}
}

// TestResolveDefaultsAndOverrides covers default fill-in, override
// overlay, and the unknown-parameter error that catches campaign-grid
// typos at expansion time.
func TestResolveDefaultsAndOverrides(t *testing.T) {
	e, _ := LookupExperiment("fig7")
	p, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p["requests"] != "2000" || p["seed"] != "7" || p["cc"] != "dcqcn" {
		t.Fatalf("defaults: %v", p)
	}

	p, err = e.Resolve(map[string]string{"requests": "250"})
	if err != nil {
		t.Fatal(err)
	}
	if p["requests"] != "250" || p["seed"] != "7" {
		t.Fatalf("override: %v", p)
	}

	if _, err := e.Resolve(map[string]string{"requsets": "250"}); err == nil {
		t.Fatal("typo'd parameter name accepted")
	}
}

// TestParamParsers covers the typed accessors' error paths.
func TestParamParsers(t *testing.T) {
	p := Params{"n": "12", "f": "0.5", "s": "7", "ws": "1, 4,8", "bad": "x"}
	if v, err := p.Int("n"); err != nil || v != 12 {
		t.Fatalf("Int: %v %v", v, err)
	}
	if v, err := p.Float("f"); err != nil || v != 0.5 {
		t.Fatalf("Float: %v %v", v, err)
	}
	if v, err := p.Uint64("s"); err != nil || v != 7 {
		t.Fatalf("Uint64: %v %v", v, err)
	}
	ws, err := p.Ints("ws")
	if err != nil || len(ws) != 3 || ws[0] != 1 || ws[1] != 4 || ws[2] != 8 {
		t.Fatalf("Ints: %v %v", ws, err)
	}
	if _, err := p.Int("bad"); err == nil {
		t.Fatal("Int on junk accepted")
	}
	if _, err := p.Ints("bad"); err == nil {
		t.Fatal("Ints on junk accepted")
	}
}

// TestRunFig2 runs the one self-contained analytic experiment through
// the registry and checks Text matches the direct renderer and Data
// carries the rows.
func TestRunFig2(t *testing.T) {
	e, _ := LookupExperiment("fig2")
	p, err := e.Resolve(map[string]string{"cut_factor": "0.25"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	fp := DefaultFig2Params()
	fp.CutFactor = 0.25
	want := render(func(w io.Writer) { FprintFig2(w, Fig2Motivation(fp)) })
	if out.Text != want {
		t.Fatalf("text mismatch:\ngot:\n%s\nwant:\n%s", out.Text, want)
	}
	rows, ok := out.Data.([]Fig2Row)
	if !ok || len(rows) != 3 {
		t.Fatalf("data: %T %v", out.Data, out.Data)
	}
}

// TestRunWithoutTPMFails asserts a model-dependent experiment fails
// cleanly when the environment provides no trainer, instead of
// panicking mid-simulation.
func TestRunWithoutTPMFails(t *testing.T) {
	e, _ := LookupExperiment("fig7")
	p, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil, p); err == nil {
		t.Fatal("fig7 ran without a TPM")
	}
	if _, err := e.Run(&Env{}, p); err == nil {
		t.Fatal("fig7 ran with an empty Env")
	}
}

// TestReplayRequiresFile asserts replay validates its file parameter
// before touching the TPM.
func TestReplayRequiresFile(t *testing.T) {
	e, _ := LookupExperiment("replay")
	p, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil, p); err == nil {
		t.Fatal("replay ran without a file")
	}
}

// TestTable3EmptyClassMarshals: a synthetic pool too small to populate
// every SCV class leaves held-out classes without samples. Their NaN
// accuracy must still marshal (as null), or a campaign job fails, while
// the text table keeps printing NaN.
func TestTable3EmptyClassMarshals(t *testing.T) {
	if testing.Short() {
		t.Skip("collects device samples and fits forests; skipped with -short")
	}
	e, _ := LookupExperiment("table3")
	p, err := e.Resolve(map[string]string{"traces": "1", "count": "500"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out.Data)
	if err != nil {
		t.Fatalf("marshal table3 data: %v", err)
	}
	var rows []struct {
		Class    int
		Accuracy *float64
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	var empty, scored int
	for _, r := range rows {
		if r.Accuracy == nil {
			empty++
		} else {
			scored++
		}
	}
	if len(rows) != 4 || empty == 0 || scored == 0 {
		t.Fatalf("want 4 rows, some empty and some scored: %s", b)
	}
	if strings.Count(out.Text, "NaN") != empty {
		t.Fatalf("text should print NaN for the %d empty classes:\n%s", empty, out.Text)
	}
}
