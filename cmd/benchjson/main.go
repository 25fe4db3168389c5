// benchjson converts `go test -bench` output into the repo's
// schema-versioned BENCH_<n>.json format and compares two such files
// against regression thresholds. It is the machine half of
// scripts/bench.sh; see README.md for the workflow.
//
//	go test -run '^$' -bench . -benchmem . | benchjson parse > BENCH_1.json
//	benchjson compare BENCH_0.json BENCH_1.json
//
// compare exits non-zero when any gated benchmark regresses beyond the
// thresholds (ns/op or allocs/op), so CI can consume it directly.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the BENCH_*.json layout; bump on incompatible
// changes so downstream tooling can reject files it does not understand.
const Schema = 1

// Entry is one benchmark's measurements. HeapBytes is the heap
// high-water custom metric (heap-B) reported by the sim benchmarks;
// zero when the benchmark does not report it.
type Entry struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HeapBytes   float64 `json:"heap_bytes,omitempty"`
}

// File is the BENCH_<n>.json document.
type File struct {
	Schema     int              `json:"schema"`
	GOOS       string           `json:"goos,omitempty"`
	GOARCH     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		if err := parse(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
	case "compare":
		if len(os.Args) != 4 {
			usage()
		}
		ok, err := compare(os.Args[2], os.Args[3], os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchjson parse < bench-output > BENCH_n.json")
	fmt.Fprintln(os.Stderr, "       benchjson compare BENCH_0.json BENCH_n.json")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse reads `go test -bench` text and emits the JSON document. Metric
// pairs after the iteration count are tokenized as (value, unit), so the
// order go test prints them in does not matter.
func parse(in *os.File, out *os.File) error {
	f := File{Schema: Schema, Benchmarks: map[string]Entry{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			f.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			f.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			f.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so baselines compare across
		// machines with different core counts.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		e := Entry{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			case "heap-B":
				e.HeapBytes = v
			}
		}
		f.Benchmarks[name] = e
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// gates are the regression thresholds per benchmark: the hot-path
// experiments that the event-engine optimization must keep fast.
// allocs/op is near-deterministic (repeat runs differ by a few
// allocations in 60k), so its bound is tight; ns/op carries machine
// noise and keeps a wide one.
var gates = map[string]struct{ maxNsGrowth, maxAllocGrowth float64 }{
	"BenchmarkFig7Throughput":  {maxNsGrowth: 0.30, maxAllocGrowth: 0.02},
	"BenchmarkFig5WeightSweep": {maxNsGrowth: 0.30, maxAllocGrowth: 0.02},
}

func load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %d, this tool understands %d", path, f.Schema, Schema)
	}
	return &f, nil
}

// compare prints a delta table for every benchmark present in both
// files and returns false when a gated benchmark regresses beyond its
// thresholds.
func compare(basePath, newPath string, out io.Writer) (bool, error) {
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cur, err := load(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no common benchmarks between %s and %s", basePath, newPath)
	}
	pct := func(old, new float64) string {
		if old == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", (new/old-1)*100)
	}
	ok := true
	fmt.Fprintf(out, "%-34s %14s %14s %9s %9s\n", "benchmark", "ns/op", "allocs/op", "Δns", "Δallocs")
	for _, name := range names {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		fmt.Fprintf(out, "%-34s %14.0f %14.0f %9s %9s\n",
			name, c.NsPerOp, c.AllocsPerOp, pct(b.NsPerOp, c.NsPerOp), pct(b.AllocsPerOp, c.AllocsPerOp))
		g, gated := gates[name]
		if !gated {
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+g.maxNsGrowth) {
			fmt.Fprintf(out, "FAIL %s: ns/op %.0f exceeds baseline %.0f by more than %.0f%%\n",
				name, c.NsPerOp, b.NsPerOp, g.maxNsGrowth*100)
			ok = false
		}
		if b.AllocsPerOp > 0 && c.AllocsPerOp > b.AllocsPerOp*(1+g.maxAllocGrowth) {
			fmt.Fprintf(out, "FAIL %s: allocs/op %.0f exceeds baseline %.0f by more than %.0f%%\n",
				name, c.AllocsPerOp, b.AllocsPerOp, g.maxAllocGrowth*100)
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(out, "PASS: all gated benchmarks within thresholds")
	}
	return ok, nil
}
