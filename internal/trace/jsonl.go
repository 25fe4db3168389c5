package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"srcsim/internal/sim"
)

// The open JSONL request-trace format (schema version 1): line 1 is a
// header object naming the format and version, every following line is
// one request record. The format is the application-centric ingest
// boundary of the scenario toolchain — anything that can emit these
// records (a blktrace post-processor, a production I/O log scraper, a
// synthetic generator in another language) can drive the simulator,
// and scenario.Fit can refit any ingested trace into a reusable
// workload configuration.
//
//	{"format":"srcsim-trace","version":1}
//	{"ts_ns":0,"op":"R","lba":4096,"size":8192,"stream":"vol0"}
//	{"ts_ns":1350,"op":"W","lba":0,"size":4096,"initiator":0,"target":1}
//
// ts_ns is the arrival time in nanoseconds (non-negative), op is "R" or
// "W", lba and size are bytes (size positive, lba+size within 64
// bits), stream is an optional volume/stream tag, initiator/target
// optionally pin a request to cluster nodes. Decoding is strict:
// unknown fields, bad values, and a missing or unsupported header fail
// with the offending line number.

// JSONLFormat and JSONLVersion identify the open trace schema.
const (
	JSONLFormat  = "srcsim-trace"
	JSONLVersion = 1
)

// jsonlHeader is the first line of a JSONL trace file.
type jsonlHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// jsonlRecord is one request line. Field order fixes the key order the
// writer emits, keeping files diff-friendly and byte-deterministic.
type jsonlRecord struct {
	TS        int64  `json:"ts_ns"`
	Op        string `json:"op"`
	LBA       uint64 `json:"lba"`
	Size      int    `json:"size"`
	Stream    string `json:"stream,omitempty"`
	Initiator int    `json:"initiator,omitempty"`
	Target    int    `json:"target,omitempty"`
}

// WriteJSONL encodes the trace in the open JSONL format: the version
// header followed by one record per request, in trace order.
func WriteJSONL(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(jsonlHeader{Format: JSONLFormat, Version: JSONLVersion})
	if err != nil {
		return fmt.Errorf("trace: jsonl header: %w", err)
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for _, r := range t.Requests {
		rec := jsonlRecord{
			TS: int64(r.Arrival), Op: r.Op.String(), LBA: r.LBA, Size: r.Size,
			Stream: r.Stream, Initiator: r.Initiator, Target: r.Target,
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("trace: jsonl record %d: %w", r.ID, err)
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadJSONL decodes a trace written in the open JSONL format. Decoding
// is strict — unknown fields, malformed JSON, value-range violations,
// and header mismatches all fail with the 1-based line number. IDs are
// assigned in file order; the request order of the file is preserved
// (call Sort before replay if the source was not time-ordered).
func ReadJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: jsonl line 1: %w", err)
		}
		return nil, fmt.Errorf("trace: jsonl line 1: missing header %q", JSONLFormat)
	}
	var hdr jsonlHeader
	if err := decodeStrict(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: jsonl line 1: bad header: %w", err)
	}
	if hdr.Format != JSONLFormat {
		return nil, fmt.Errorf("trace: jsonl line 1: format %q, want %q", hdr.Format, JSONLFormat)
	}
	if hdr.Version != JSONLVersion {
		return nil, fmt.Errorf("trace: jsonl line 1: unsupported version %d (decoder speaks %d)", hdr.Version, JSONLVersion)
	}

	t := &Trace{}
	line := 1
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := decodeStrict(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		if rec.TS < 0 {
			return nil, fmt.Errorf("trace: jsonl line %d: negative ts_ns %d", line, rec.TS)
		}
		var op Op
		switch rec.Op {
		case "R":
			op = Read
		case "W":
			op = Write
		default:
			return nil, fmt.Errorf("trace: jsonl line %d: bad op %q (want R or W)", line, rec.Op)
		}
		if rec.Size <= 0 {
			return nil, fmt.Errorf("trace: jsonl line %d: non-positive size %d", line, rec.Size)
		}
		if wraps(rec.LBA, rec.Size) {
			return nil, fmt.Errorf("trace: jsonl line %d: lba %d + size %d overflows 64 bits", line, rec.LBA, rec.Size)
		}
		if rec.Initiator < 0 || rec.Target < 0 {
			return nil, fmt.Errorf("trace: jsonl line %d: negative initiator/target", line)
		}
		t.Requests = append(t.Requests, Request{
			ID: uint64(len(t.Requests)), Op: op, LBA: rec.LBA, Size: rec.Size,
			Arrival: sim.Time(rec.TS), Stream: rec.Stream,
			Initiator: rec.Initiator, Target: rec.Target,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
	}
	return t, nil
}

// decodeStrict unmarshals one JSON line rejecting unknown fields and
// trailing garbage.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}
