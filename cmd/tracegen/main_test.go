package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// TestGenerateJSONLRoundTrip: every generator kind encoded with
// -format jsonl must decode back through the strict reader to the
// exact same request stream.
func TestGenerateJSONLRoundTrip(t *testing.T) {
	write, err := trace.Encoder("jsonl")
	if err != nil {
		t.Fatal(err)
	}
	ia := sim.Time((10 * time.Microsecond).Nanoseconds())
	for _, kind := range []string{"micro", "synthetic", "vdi", "cbs"} {
		tr, err := buildTrace(kind, 1, 200, ia, 32<<10, 4, 2, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var buf bytes.Buffer
		if err := write(&buf, tr); err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		rt, err := trace.ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if rt.Len() != tr.Len() {
			t.Fatalf("%s: round-trip length %d != %d", kind, rt.Len(), tr.Len())
		}
		for i := range tr.Requests {
			if rt.Requests[i] != tr.Requests[i] {
				t.Fatalf("%s: request %d: %+v != %+v", kind, i, rt.Requests[i], tr.Requests[i])
			}
		}
	}
}

func TestGenerateJSONLDeterministic(t *testing.T) {
	write, err := trace.Encoder("jsonl")
	if err != nil {
		t.Fatal(err)
	}
	ia := sim.Time((10 * time.Microsecond).Nanoseconds())
	var a, b bytes.Buffer
	for _, buf := range []*bytes.Buffer{&a, &b} {
		tr, err := buildTrace("micro", 7, 100, ia, 16<<10, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different jsonl bytes")
	}
	if !strings.HasPrefix(a.String(), `{"format":"srcsim-trace"`) {
		t.Fatalf("missing header line: %q", a.String()[:min(len(a.String()), 80)])
	}
}

// TestEncoderForErrors: -format values tracegen cannot write fail.
func TestEncoderForErrors(t *testing.T) {
	if _, err := trace.Encoder("msr"); err == nil {
		t.Fatal("msr is inspect-only; encoding should fail")
	}
	if _, err := trace.Encoder("bogus"); err == nil {
		t.Fatal("bogus format should fail")
	}
}

func TestBuildTraceErrors(t *testing.T) {
	if _, err := buildTrace("bogus", 1, 10, sim.Microsecond, 4096, 1, 1, 0); err == nil {
		t.Fatal("bogus kind should fail")
	}
}
