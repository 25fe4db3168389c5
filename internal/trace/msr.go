package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"srcsim/internal/sim"
)

// ReadMSR decodes a trace in the MSR Cambridge block-trace format, the
// most common public format on the SNIA IOTTA repository (where the
// paper's Fujitsu VDI and Tencent CBS traces live):
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp and ResponseTime are in Windows filetime ticks (100 ns);
// Type is "Read" or "Write" (case-insensitive); Offset and Size are in
// bytes. Arrival times are rebased so the first request arrives at 0.
// Lines that are blank or start with '#' are skipped.
//
// An adopter with access to the real SNIA traces can feed them through
// this reader, extract their statistics with Extract, fit an MMPP with
// dist.FitMMPP2, or replay them directly on the cluster.
func ReadMSR(r io.Reader) (*Trace, error) {
	const tick = 100 // ns per filetime tick
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Trace{}
	var ticks []int64 // raw timestamps, rebased to their minimum below
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 6 {
			return nil, fmt.Errorf("trace: msr line %d has %d fields, want >= 6", lineNo, len(fields))
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil || ts < 0 {
			return nil, fmt.Errorf("trace: msr line %d: bad timestamp %q (want non-negative ticks)", lineNo, fields[0])
		}
		var op Op
		switch strings.ToLower(strings.TrimSpace(fields[3])) {
		case "read", "r":
			op = Read
		case "write", "w":
			op = Write
		default:
			return nil, fmt.Errorf("trace: msr line %d type %q", lineNo, fields[3])
		}
		offset, err := strconv.ParseUint(strings.TrimSpace(fields[4]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d offset: %w", lineNo, err)
		}
		size, err := strconv.Atoi(strings.TrimSpace(fields[5]))
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("trace: msr line %d size %q", lineNo, fields[5])
		}
		if wraps(offset, size) {
			return nil, fmt.Errorf("trace: msr line %d: offset %d + size %d overflows 64 bits", lineNo, offset, size)
		}
		ticks = append(ticks, ts)
		t.Requests = append(t.Requests, Request{
			ID:   uint64(len(t.Requests)),
			Op:   op,
			LBA:  offset,
			Size: size,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: msr scan: %w", err)
	}
	// Rebase to the minimum timestamp (not the first): MSR files are not
	// guaranteed time-ordered, and rebasing to the first line would give
	// earlier requests negative arrivals.
	var base int64
	for i, ts := range ticks {
		if i == 0 || ts < base {
			base = ts
		}
	}
	const maxTicks = int64(math.MaxInt64) / tick
	for i, ts := range ticks {
		if ts-base > maxTicks {
			return nil, fmt.Errorf("trace: msr timestamp span %d ticks overflows ns", ts-base)
		}
		t.Requests[i].Arrival = sim.Time((ts - base) * tick)
	}
	t.Sort()
	for i := range t.Requests {
		t.Requests[i].ID = uint64(i)
	}
	return t, nil
}
