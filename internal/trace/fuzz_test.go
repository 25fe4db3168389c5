package trace

import (
	"strings"
	"testing"
)

// FuzzReadCSV: the CSV reader must never panic, and every accepted
// trace must satisfy the package invariants (positive sizes, spans
// that do not wrap, non-negative arrivals).
func FuzzReadCSV(f *testing.F) {
	f.Add("arrival_ns,op,lba_bytes,size_bytes,initiator,target\n0,R,0,4096,0,0\n")
	f.Add("arrival_ns,op,lba_bytes,size_bytes,initiator,target\n100,W,8192,512,1,1\n5,R,0,1,0,0\n")
	f.Add("arrival_ns,op,lba_bytes,size_bytes,initiator,target\n-1,R,0,4096,0,0\n")
	f.Add("arrival_ns,op,lba_bytes,size_bytes,initiator,target\n0,X,0,4096,0,0\n")
	f.Add("arrival_ns,op,lba_bytes,size_bytes,initiator,target\n0,R,0,0,0,0\n")
	f.Add("bogus,header\n")
	f.Add("")
	f.Add("arrival_ns,op,lba_bytes,size_bytes,initiator,target\n0,R,18446744073709551615,4096,0,0\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range tr.Requests {
			if r.Size <= 0 {
				t.Fatalf("request %d accepted with size %d", i, r.Size)
			}
			if r.End() < r.LBA {
				t.Fatalf("request %d accepted with a wrapping span: lba %d size %d", i, r.LBA, r.Size)
			}
			if r.Arrival < 0 {
				t.Fatalf("request %d accepted with negative arrival %v", i, r.Arrival)
			}
		}
	})
}

// FuzzTraceJSONL: the open-format decoder must never panic; every
// accepted trace must satisfy the package invariants (positive sizes,
// spans that do not wrap, non-negative arrivals, file-ordered IDs) and
// survive a write -> read round trip unchanged — the JSONL writer and decoder are the public
// ingest boundary of the scenario toolchain.
func FuzzTraceJSONL(f *testing.F) {
	hdr := "{\"format\":\"srcsim-trace\",\"version\":1}\n"
	f.Add(hdr)
	f.Add(hdr + "{\"ts_ns\":0,\"op\":\"R\",\"lba\":4096,\"size\":8192,\"stream\":\"vol0\"}\n")
	f.Add(hdr + "{\"ts_ns\":1350,\"op\":\"W\",\"lba\":0,\"size\":4096,\"initiator\":1,\"target\":1}\n")
	f.Add(hdr + "{\"ts_ns\":-1,\"op\":\"R\",\"lba\":0,\"size\":1}\n")
	f.Add(hdr + "{\"ts_ns\":0,\"op\":\"X\",\"lba\":0,\"size\":1}\n")
	f.Add(hdr + "{\"ts_ns\":0,\"op\":\"R\",\"lba\":0,\"size\":0}\n")
	f.Add(hdr + "{\"ts_ns\":0,\"op\":\"R\",\"lba\":0,\"size\":1,\"bogus\":2}\n")
	f.Add("{\"format\":\"srcsim-trace\",\"version\":99}\n")
	f.Add("{\"format\":\"other\",\"version\":1}\n")
	f.Add("")
	f.Add("not json at all\n")
	f.Add(hdr + "{\"ts_ns\":0,\"op\":\"W\",\"lba\":18446744073709547520,\"size\":8192}\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadJSONL(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range tr.Requests {
			if r.Size <= 0 {
				t.Fatalf("request %d accepted with size %d", i, r.Size)
			}
			if r.End() < r.LBA {
				t.Fatalf("request %d accepted with a wrapping span: lba %d size %d", i, r.LBA, r.Size)
			}
			if r.Arrival < 0 {
				t.Fatalf("request %d accepted with negative arrival %v", i, r.Arrival)
			}
			if r.ID != uint64(i) {
				t.Fatalf("request %d has ID %d", i, r.ID)
			}
		}
		var buf strings.Builder
		if err := WriteJSONL(&buf, tr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		rt, err := ReadJSONL(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(rt.Requests) != len(tr.Requests) {
			t.Fatalf("round trip lost requests: %d -> %d", len(tr.Requests), len(rt.Requests))
		}
		for i := range tr.Requests {
			if rt.Requests[i] != tr.Requests[i] {
				t.Fatalf("round trip changed request %d: %+v -> %+v", i, tr.Requests[i], rt.Requests[i])
			}
		}
	})
}

// FuzzReadMSR: the MSR reader must never panic, and every accepted
// trace must be sorted with non-negative arrivals, positive sizes and
// spans that do not wrap.
func FuzzReadMSR(f *testing.F) {
	f.Add("128166372003061629,src1,0,Read,0,4096,100\n")
	f.Add("2000,h,0,Read,4096,8192,1\n1000,h,0,Write,0,512,1\n")
	f.Add("# comment\n\n1000,h,0,write,0,512,1\n")
	f.Add("-5,h,0,Read,0,4096,1\n")
	f.Add("1000,h,0,Flush,0,4096,1\n")
	f.Add("1000,h,0,Read,0,-4,1\n")
	f.Add("9223372036854775807,h,0,Read,0,4096,1\n0,h,0,Read,0,4096,1\n")
	f.Add("not,enough\n")
	f.Add("1000,h,0,Write,18446744073709547520,8192,1\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadMSR(strings.NewReader(data))
		if err != nil {
			return
		}
		var prev int64 = -1
		for i, r := range tr.Requests {
			if r.Size <= 0 {
				t.Fatalf("request %d accepted with size %d", i, r.Size)
			}
			if r.End() < r.LBA {
				t.Fatalf("request %d accepted with a wrapping span: lba %d size %d", i, r.LBA, r.Size)
			}
			if r.Arrival < 0 {
				t.Fatalf("request %d accepted with negative arrival %v", i, r.Arrival)
			}
			if int64(r.Arrival) < prev {
				t.Fatalf("request %d out of order: %v after %v", i, r.Arrival, prev)
			}
			prev = int64(r.Arrival)
			if r.ID != uint64(i) {
				t.Fatalf("request %d has ID %d", i, r.ID)
			}
		}
	})
}
