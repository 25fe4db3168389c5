package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"srcsim/internal/sim"
)

// csvHeader is the column layout used by WriteCSV/ReadCSV. It mirrors the
// common block-trace formats on the SNIA IOTTA repository (timestamp, op,
// offset, size) with explicit units.
var csvHeader = []string{"arrival_ns", "op", "lba_bytes", "size_bytes", "initiator", "target"}

// WriteCSV encodes the trace in a stable, diff-friendly text format.
func WriteCSV(w io.Writer, t *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	row := make([]string, len(csvHeader))
	for _, r := range t.Requests {
		row[0] = strconv.FormatInt(int64(r.Arrival), 10)
		row[1] = r.Op.String()
		row[2] = strconv.FormatUint(r.LBA, 10)
		row[3] = strconv.Itoa(r.Size)
		row[4] = strconv.Itoa(r.Initiator)
		row[5] = strconv.Itoa(r.Target)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace written by WriteCSV. IDs are assigned in file
// order.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("trace: column %d is %q, want %q", i, header[i], want)
		}
	}
	t := &Trace{}
	for id := uint64(0); ; id++ {
		line := id + 2 // 1-based; the header is line 1
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read row: %w", err)
		}
		arrival, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil || arrival < 0 {
			return nil, fmt.Errorf("trace: line %d: bad arrival %q (want non-negative ns)", line, row[0])
		}
		var op Op
		switch row[1] {
		case "R":
			op = Read
		case "W":
			op = Write
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", line, row[1])
		}
		lba, err := strconv.ParseUint(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad lba %q", line, row[2])
		}
		size, err := strconv.Atoi(row[3])
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("trace: line %d: bad size %q", line, row[3])
		}
		if wraps(lba, size) {
			return nil, fmt.Errorf("trace: line %d: lba %d + size %d overflows 64 bits", line, lba, size)
		}
		ini, err := strconv.Atoi(row[4])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad initiator %q", line, row[4])
		}
		tgt, err := strconv.Atoi(row[5])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad target %q", line, row[5])
		}
		t.Requests = append(t.Requests, Request{
			ID: id, Op: op, LBA: lba, Size: size,
			Arrival: sim.Time(arrival), Initiator: ini, Target: tgt,
		})
	}
	return t, nil
}
