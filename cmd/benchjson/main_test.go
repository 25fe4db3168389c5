package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBench stores a BENCH file holding the given entries.
func writeBench(t *testing.T, name string, schema int, entries map[string]Entry) string {
	t.Helper()
	b, err := json.Marshal(File{Schema: schema, Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, b, 0o666); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareGates(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkFig7Throughput":  {NsPerOp: 100e6, AllocsPerOp: 60000},
		"BenchmarkFig5WeightSweep": {NsPerOp: 1e9, AllocsPerOp: 1.2e6},
		"BenchmarkFig2Motivation":  {NsPerOp: 40, AllocsPerOp: 1},
	}
	// scaled returns base with one benchmark's ns/op and allocs/op grown
	// by the given fractions.
	scaled := func(name string, ns, allocs float64) map[string]Entry {
		cur := map[string]Entry{}
		for k, v := range base {
			cur[k] = v
		}
		e := cur[name]
		e.NsPerOp *= 1 + ns
		e.AllocsPerOp *= 1 + allocs
		cur[name] = e
		return cur
	}
	basePath := writeBench(t, "base.json", Schema, base)
	for _, tc := range []struct {
		name   string
		cur    map[string]Entry
		wantOK bool
		fail   string
	}{
		{"allocs +1% passes", scaled("BenchmarkFig7Throughput", 0, 0.01), true, ""},
		{"allocs +3% fails", scaled("BenchmarkFig5WeightSweep", 0, 0.03), false, "FAIL BenchmarkFig5WeightSweep: allocs/op"},
		{"ns/op +31% fails", scaled("BenchmarkFig7Throughput", 0.31, 0), false, "FAIL BenchmarkFig7Throughput: ns/op"},
		{"ungated +50% passes", scaled("BenchmarkFig2Motivation", 0.5, 0.5), true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			ok, err := compare(basePath, writeBench(t, "cur.json", Schema, tc.cur), &out)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v\n%s", ok, tc.wantOK, out.String())
			}
			if tc.fail != "" && !strings.Contains(out.String(), tc.fail) {
				t.Fatalf("output lacks %q:\n%s", tc.fail, out.String())
			}
			if tc.wantOK && !strings.Contains(out.String(), "PASS") {
				t.Fatalf("output lacks PASS:\n%s", out.String())
			}
		})
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	entries := map[string]Entry{"BenchmarkFig7Throughput": {NsPerOp: 1, AllocsPerOp: 1}}
	basePath := writeBench(t, "base.json", Schema, entries)
	curPath := writeBench(t, "cur.json", Schema+1, entries)
	var out bytes.Buffer
	if _, err := compare(basePath, curPath, &out); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch: err = %v", err)
	}
}
