package trace

import (
	"bytes"
	"strings"
	"testing"

	"srcsim/internal/sim"
)

func sampleTrace() *Trace {
	return &Trace{Requests: []Request{
		{ID: 0, Op: Read, LBA: 4096, Size: 8192, Arrival: 0, Stream: "vol0"},
		{ID: 1, Op: Write, LBA: 0, Size: 4096, Arrival: 1350, Initiator: 1, Target: 1},
		{ID: 2, Op: Read, LBA: 1 << 30, Size: 1 << 20, Arrival: 99999, Stream: "scan"},
	}}
}

// TestJSONLRoundTrip: write -> read must reproduce every field,
// including the stream tag the CSV codec does not carry.
func TestJSONLRoundTrip(t *testing.T) {
	in := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(out.Requests) != len(in.Requests) {
		t.Fatalf("got %d requests, want %d", len(out.Requests), len(in.Requests))
	}
	for i, want := range in.Requests {
		if out.Requests[i] != want {
			t.Errorf("request %d: got %+v, want %+v", i, out.Requests[i], want)
		}
	}
}

// TestJSONLDeterministicBytes: two writes of the same trace are
// byte-identical (the writer is part of the determinism surface).
func TestJSONLDeterministicBytes(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of one trace differ")
	}
	if !strings.HasPrefix(a.String(), `{"format":"srcsim-trace","version":1}`+"\n") {
		t.Fatalf("missing version header: %q", a.String()[:60])
	}
}

// TestJSONLEmptyTrace: a header-only file is a valid empty trace.
func TestJSONLEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, &Trace{}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("got %d requests", out.Len())
	}
}

// TestJSONLStrictErrors: every malformed input fails with the offending
// 1-based line number in the message.
func TestJSONLStrictErrors(t *testing.T) {
	hdr := `{"format":"srcsim-trace","version":1}` + "\n"
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "line 1"},
		{"no header", `{"ts_ns":0,"op":"R","lba":0,"size":1}` + "\n", "line 1"},
		{"wrong format", `{"format":"other","version":1}` + "\n", `format "other"`},
		{"future version", `{"format":"srcsim-trace","version":2}` + "\n", "unsupported version 2"},
		{"unknown field", hdr + `{"ts_ns":0,"op":"R","lba":0,"size":1,"bogus":3}` + "\n", "line 2"},
		{"negative ts", hdr + `{"ts_ns":-1,"op":"R","lba":0,"size":1}` + "\n", "negative ts_ns"},
		{"bad op", hdr + `{"ts_ns":0,"op":"X","lba":0,"size":1}` + "\n", `bad op "X"`},
		{"zero size", hdr + `{"ts_ns":0,"op":"R","lba":0,"size":0}` + "\n", "non-positive size"},
		{"negative size", hdr + `{"ts_ns":0,"op":"W","lba":0,"size":-9}` + "\n", "non-positive size"},
		{"wrapping span", hdr + `{"ts_ns":0,"op":"R","lba":0,"size":1}` + "\n" +
			`{"ts_ns":0,"op":"W","lba":18446744073709547520,"size":8192}` + "\n", "jsonl line 3: lba 18446744073709547520 + size 8192 overflows"},
		{"negative target", hdr + `{"ts_ns":0,"op":"R","lba":0,"size":1,"target":-1}` + "\n", "negative initiator/target"},
		{"trailing garbage", hdr + `{"ts_ns":0,"op":"R","lba":0,"size":1} extra` + "\n", "line 2"},
		{"not json", hdr + "ts,op,lba\n", "line 2"},
		{"third line", hdr + `{"ts_ns":0,"op":"R","lba":0,"size":1}` + "\n" + `{"op":"Q"}` + "\n", "line 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJSONL(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestJSONLBlankLinesSkipped: blank lines between records are
// tolerated, mirroring the MSR reader's leniency for hand-edited files.
func TestJSONLBlankLinesSkipped(t *testing.T) {
	in := `{"format":"srcsim-trace","version":1}` + "\n\n" +
		`{"ts_ns":5,"op":"W","lba":0,"size":512}` + "\n\n"
	out, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Requests[0].Arrival != sim.Time(5) {
		t.Fatalf("got %+v", out.Requests)
	}
}

// TestJSONLPreservesFileOrder: like the CSV reader, the decoder keeps
// file order and assigns IDs sequentially; it does not sort.
func TestJSONLPreservesFileOrder(t *testing.T) {
	in := `{"format":"srcsim-trace","version":1}` + "\n" +
		`{"ts_ns":100,"op":"R","lba":0,"size":512}` + "\n" +
		`{"ts_ns":5,"op":"W","lba":0,"size":512}` + "\n"
	out, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Requests[0].Arrival != 100 || out.Requests[1].Arrival != 5 {
		t.Fatalf("order not preserved: %+v", out.Requests)
	}
	if out.Requests[0].ID != 0 || out.Requests[1].ID != 1 {
		t.Fatalf("IDs not file-ordered: %+v", out.Requests)
	}
}
