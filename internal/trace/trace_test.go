package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"srcsim/internal/sim"
)

func mkTrace(reqs ...Request) *Trace { return &Trace{Requests: reqs} }

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("Op strings")
	}
	if Op(9).String() != "Op(9)" {
		t.Fatal("unknown op string")
	}
}

func TestRequestOverlaps(t *testing.T) {
	a := Request{LBA: 100, Size: 50}
	cases := []struct {
		b    Request
		want bool
	}{
		{Request{LBA: 100, Size: 50}, true},
		{Request{LBA: 149, Size: 1}, true},
		{Request{LBA: 150, Size: 10}, false},
		{Request{LBA: 90, Size: 10}, false},
		{Request{LBA: 90, Size: 11}, true},
		{Request{LBA: 0, Size: 1000}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%+v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("Overlaps symmetric (%+v)", c.b)
		}
	}
}

func TestSortStable(t *testing.T) {
	tr := mkTrace(
		Request{ID: 2, Arrival: 10},
		Request{ID: 1, Arrival: 10},
		Request{ID: 3, Arrival: 5},
	)
	tr.Sort()
	if tr.Requests[0].ID != 3 || tr.Requests[1].ID != 1 || tr.Requests[2].ID != 2 {
		t.Fatalf("sort order wrong: %+v", tr.Requests)
	}
}

func TestDurationAndTotals(t *testing.T) {
	tr := mkTrace(
		Request{Arrival: 100, Size: 10},
		Request{Arrival: 400, Size: 30},
	)
	if tr.Duration() != 300 {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if tr.TotalBytes() != 40 {
		t.Fatalf("TotalBytes = %v", tr.TotalBytes())
	}
	if (&Trace{}).Duration() != 0 {
		t.Fatal("empty duration")
	}
}

func TestByOpAndWindow(t *testing.T) {
	tr := mkTrace(
		Request{ID: 0, Op: Read, Arrival: 0},
		Request{ID: 1, Op: Write, Arrival: 10},
		Request{ID: 2, Op: Read, Arrival: 20},
		Request{ID: 3, Op: Write, Arrival: 30},
	)
	r, w := tr.ByOp()
	if r.Len() != 2 || w.Len() != 2 {
		t.Fatalf("ByOp split %d/%d", r.Len(), w.Len())
	}
	win := tr.Window(10, 30)
	if win.Len() != 2 || win.Requests[0].ID != 1 || win.Requests[1].ID != 2 {
		t.Fatalf("Window = %+v", win.Requests)
	}
}

func TestMergeOrdersByArrival(t *testing.T) {
	a := mkTrace(Request{ID: 0, Arrival: 0}, Request{ID: 1, Arrival: 20})
	b := mkTrace(Request{ID: 2, Arrival: 10})
	m := a.Merge(b)
	if m.Len() != 3 {
		t.Fatalf("merge len %d", m.Len())
	}
	for i := 1; i < m.Len(); i++ {
		if m.Requests[i].Arrival < m.Requests[i-1].Arrival {
			t.Fatalf("merge unordered: %+v", m.Requests)
		}
	}
	// Originals untouched.
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatal("merge mutated inputs")
	}
}

func TestScaleTime(t *testing.T) {
	tr := mkTrace(Request{Arrival: 100}, Request{Arrival: 200})
	sc := tr.ScaleTime(0.5)
	if sc.Requests[0].Arrival != 50 || sc.Requests[1].Arrival != 100 {
		t.Fatalf("ScaleTime wrong: %+v", sc.Requests)
	}
	if tr.Requests[0].Arrival != 100 {
		t.Fatal("ScaleTime mutated source")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive scale should panic")
		}
	}()
	tr.ScaleTime(0)
}

func TestExtractDirStats(t *testing.T) {
	// Four reads, 10us apart, alternating sizes 10k/30k: mean size 20k.
	us := sim.Microsecond
	reqs := []Request{
		{Op: Read, Size: 10000, Arrival: 0},
		{Op: Read, Size: 30000, Arrival: 10 * us},
		{Op: Read, Size: 10000, Arrival: 20 * us},
		{Op: Read, Size: 30000, Arrival: 30 * us},
	}
	d := ExtractDirStats(reqs)
	if d.Count != 4 {
		t.Fatalf("count %d", d.Count)
	}
	if d.MeanSize != 20000 {
		t.Fatalf("mean size %v", d.MeanSize)
	}
	if math.Abs(d.SizeSCV-0.25) > 1e-9 {
		t.Fatalf("size scv %v, want 0.25", d.SizeSCV)
	}
	if d.MeanInterArrival != float64(10*us) {
		t.Fatalf("mean inter-arrival %v", d.MeanInterArrival)
	}
	if d.InterArrivalSCV != 0 {
		t.Fatalf("constant arrivals should have SCV 0, got %v", d.InterArrivalSCV)
	}
	// 80KB over 30us = 2.667 GB/s
	wantFlow := 80000 / (30 * us).Seconds()
	if math.Abs(d.FlowSpeed-wantFlow)/wantFlow > 1e-9 {
		t.Fatalf("flow speed %v, want %v", d.FlowSpeed, wantFlow)
	}
}

func TestExtractDirStatsDegenerate(t *testing.T) {
	if d := ExtractDirStats(nil); d.Count != 0 || d.FlowSpeed != 0 {
		t.Fatalf("empty dir stats: %+v", d)
	}
	d := ExtractDirStats([]Request{{Size: 100, Arrival: 5}})
	if d.Count != 1 || d.MeanSize != 100 || d.MeanInterArrival != 0 || d.FlowSpeed != 0 {
		t.Fatalf("single-request stats: %+v", d)
	}
}

func TestExtractReadRatio(t *testing.T) {
	tr := mkTrace(
		Request{Op: Read, Size: 1, Arrival: 0},
		Request{Op: Read, Size: 1, Arrival: 1},
		Request{Op: Read, Size: 1, Arrival: 2},
		Request{Op: Write, Size: 1, Arrival: 3},
	)
	s := Extract(tr)
	if s.ReadRatio != 0.75 {
		t.Fatalf("read ratio %v", s.ReadRatio)
	}
	if s.Read.Count != 3 || s.Write.Count != 1 {
		t.Fatalf("per-dir counts %d/%d", s.Read.Count, s.Write.Count)
	}
	if !strings.Contains(s.String(), "readRatio=0.75") {
		t.Fatalf("String() = %q", s.String())
	}
	if e := Extract(&Trace{}); e.ReadRatio != 0 {
		t.Fatal("empty trace read ratio")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := mkTrace(
		Request{ID: 0, Op: Read, LBA: 4096, Size: 8192, Arrival: 1000, Initiator: 1, Target: 2},
		Request{ID: 1, Op: Write, LBA: 0, Size: 512, Arrival: 2000},
	)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip len %d", got.Len())
	}
	for i := range tr.Requests {
		if tr.Requests[i] != got.Requests[i] {
			t.Fatalf("request %d: %+v != %+v", i, tr.Requests[i], got.Requests[i])
		}
	}
}

// TestReadersRejectWrappingSpan: a request whose LBA+Size overflows
// uint64 fails with its line number in every reader, while a span that
// ends exactly at the top of the range is accepted.
func TestReadersRejectWrappingSpan(t *testing.T) {
	const csvHdr = "arrival_ns,op,lba_bytes,size_bytes,initiator,target\n"
	readCSV := func(s string) (*Trace, error) { return ReadCSV(strings.NewReader(s)) }
	readMSR := func(s string) (*Trace, error) { return ReadMSR(strings.NewReader(s)) }
	cases := []struct {
		name, in, want string
		read           func(string) (*Trace, error)
	}{
		{"csv", csvHdr + "0,R,0,4096,0,0\n0,W,18446744073709547520,8192,0,0\n",
			"line 3: lba 18446744073709547520 + size 8192 overflows", readCSV},
		{"csv max lba", csvHdr + "0,R,18446744073709551615,1,0,0\n",
			"line 2: lba 18446744073709551615 + size 1 overflows", readCSV},
		{"msr", "# header\n123,hm,0,Read,0,4096,1\n124,hm,0,Write,18446744073709547520,8192,1\n",
			"msr line 3: offset 18446744073709547520 + size 8192 overflows", readMSR},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.read(tc.in)
			if err == nil {
				t.Fatal("accepted a wrapping request")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// 2^64-4096 + 4095 ends at MaxUint64 without wrapping.
	tr, err := readCSV(csvHdr + "0,W,18446744073709547520,4095,0,0\n")
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.Requests[0]; r.End() != math.MaxUint64 {
		t.Fatalf("End = %d, want MaxUint64", r.End())
	}
}

func TestCSVRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"bad header": "nope,op,lba_bytes,size_bytes,initiator,target\n",
		"bad op":     "arrival_ns,op,lba_bytes,size_bytes,initiator,target\n5,X,0,100,0,0\n",
		"bad size":   "arrival_ns,op,lba_bytes,size_bytes,initiator,target\n5,R,0,-3,0,0\n",
		"bad time":   "arrival_ns,op,lba_bytes,size_bytes,initiator,target\nzz,R,0,100,0,0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// Property: CSV round trip preserves every field for arbitrary traces.
func TestPropertyCSVRoundTrip(t *testing.T) {
	f := func(ops []bool, sizes []uint16, arrivals []uint32) bool {
		n := len(ops)
		if len(sizes) < n {
			n = len(sizes)
		}
		if len(arrivals) < n {
			n = len(arrivals)
		}
		tr := &Trace{}
		for i := 0; i < n; i++ {
			op := Read
			if ops[i] {
				op = Write
			}
			tr.Requests = append(tr.Requests, Request{
				ID: uint64(i), Op: op, LBA: uint64(i) * 4096,
				Size: int(sizes[i]) + 1, Arrival: sim.Time(arrivals[i]),
			})
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || got.Len() != tr.Len() {
			return false
		}
		for i := range tr.Requests {
			if tr.Requests[i] != got.Requests[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
