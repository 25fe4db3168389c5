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

// TestParseFoldsRepeatsToMedian: three runs of one benchmark (go test
// -count 3) fold into the median ns/op and allocs/op, whichever run holds
// each; a benchmark seen once passes through unchanged.
func TestParseFoldsRepeatsToMedian(t *testing.T) {
	in := `goos: linux
goarch: amd64
cpu: Test CPU
BenchmarkFig7Throughput-2   	       1	 300000000 ns/op	 2000 B/op	   63200 allocs/op	  9000 heap-B
BenchmarkFig7Throughput-2   	       1	 100000000 ns/op	 3000 B/op	   63300 allocs/op	  8000 heap-B
BenchmarkFig7Throughput-2   	       1	 200000000 ns/op	 1000 B/op	   63100 allocs/op	  7000 heap-B
BenchmarkFig2Motivation-2   	26891464	        41.45 ns/op	     128 B/op	       1 allocs/op
PASS
`
	var out bytes.Buffer
	if err := parse(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.CPU != "Test CPU" || len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %+v", f)
	}
	want := Entry{Iterations: 3, NsPerOp: 200e6, BytesPerOp: 2000, AllocsPerOp: 63200, HeapBytes: 8000}
	if got := f.Benchmarks["BenchmarkFig7Throughput"]; got != want {
		t.Fatalf("Fig7 folded to %+v, want %+v", got, want)
	}
	want = Entry{Iterations: 26891464, NsPerOp: 41.45, BytesPerOp: 128, AllocsPerOp: 1}
	if got := f.Benchmarks["BenchmarkFig2Motivation"]; got != want {
		t.Fatalf("Fig2 parsed to %+v, want %+v", got, want)
	}
}
