package trace

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Formats lists the accepted trace file formats: csv (tracegen), msr
// (MSR Cambridge / SNIA block traces, read-only) and jsonl (the open
// trace format).
var Formats = []string{"csv", "msr", "jsonl"}

// codec pairs a format's decoder with its encoder (nil when the format
// is read-only).
type codec struct {
	read  func(io.Reader) (*Trace, error)
	write func(io.Writer, *Trace) error
}

var codecs = map[string]codec{
	"csv":   {ReadCSV, WriteCSV},
	"msr":   {read: ReadMSR},
	"jsonl": {ReadJSONL, WriteJSONL},
}

// CheckFormat reports whether format names an accepted trace format.
func CheckFormat(format string) error {
	if _, ok := codecs[format]; !ok {
		return fmt.Errorf("trace: unknown format %q (want %s)", format, strings.Join(Formats, ", "))
	}
	return nil
}

// ReadFile decodes the trace file at path in the named format.
func ReadFile(path, format string) (*Trace, error) {
	if err := CheckFormat(format); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return codecs[format].read(f)
}

// Encoder returns the writer for the named format; msr is read-only.
func Encoder(format string) (func(io.Writer, *Trace) error, error) {
	if err := CheckFormat(format); err != nil {
		return nil, err
	}
	if w := codecs[format].write; w != nil {
		return w, nil
	}
	return nil, fmt.Errorf("trace: format %q is read-only", format)
}
