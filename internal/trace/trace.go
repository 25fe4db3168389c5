// Package trace defines the I/O request record shared by the workload
// generators, the NVMe-oF stack, and the SRC workload monitor, together
// with trace containers, statistics extraction (the inputs of the paper's
// feature extractor, Sec. III-B), transforms, and CSV round-tripping.
package trace

import (
	"fmt"
	"math"
	"sort"

	"srcsim/internal/sim"
)

// Op is the I/O direction of a request.
type Op uint8

// Request operation kinds.
const (
	Read Op = iota
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Request is one block-level I/O operation. LBA and Size are in bytes
// (LBA is the byte offset of the first accessed block); Arrival is the
// submission time at the initiator.
type Request struct {
	ID      uint64
	Op      Op
	LBA     uint64
	Size    int
	Arrival sim.Time
	// Initiator and Target identify the issuing and serving node for
	// multi-node cluster traces; both are zero for single-device traces.
	Initiator int
	Target    int
	// Stream is an optional volume/stream tag carried by the open JSONL
	// trace format and stamped by the scenario compiler (the phase each
	// request came from). Empty for untagged traces; ignored by the CSV
	// and MSR codecs.
	Stream string
}

// End returns the byte offset one past the last accessed byte.
func (r Request) End() uint64 { return r.LBA + uint64(r.Size) }

// wraps reports whether size bytes from lba run past the 64-bit byte
// range, so that End would wrap to a small offset. The readers reject
// such requests: a wrapped span covers no block, so it would escape the
// SSQ consistency check.
func wraps(lba uint64, size int) bool { return uint64(size) > math.MaxUint64-lba }

// Overlaps reports whether two requests touch any common byte; the SSQ
// consistency check uses this to pin dependent requests to one queue.
func (r Request) Overlaps(o Request) bool {
	return r.LBA < o.End() && o.LBA < r.End()
}

// Trace is a time-ordered sequence of requests.
type Trace struct {
	Requests []Request
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// Sort orders the requests by (Arrival, ID).
func (t *Trace) Sort() {
	sort.SliceStable(t.Requests, func(i, j int) bool {
		a, b := t.Requests[i], t.Requests[j]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
}

// Duration returns the arrival span from the first to the last request.
func (t *Trace) Duration() sim.Time {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival - t.Requests[0].Arrival
}

// Filter returns a new trace containing the requests for which keep
// returns true.
func (t *Trace) Filter(keep func(Request) bool) *Trace {
	out := &Trace{}
	for _, r := range t.Requests {
		if keep(r) {
			out.Requests = append(out.Requests, r)
		}
	}
	return out
}

// ByOp splits the trace into its read and write sub-traces.
func (t *Trace) ByOp() (reads, writes *Trace) {
	reads = t.Filter(func(r Request) bool { return r.Op == Read })
	writes = t.Filter(func(r Request) bool { return r.Op == Write })
	return reads, writes
}

// Window returns the requests with Arrival in [from, to).
func (t *Trace) Window(from, to sim.Time) *Trace {
	return t.Filter(func(r Request) bool { return r.Arrival >= from && r.Arrival < to })
}

// Merge interleaves t with other into a new time-ordered trace.
func (t *Trace) Merge(other *Trace) *Trace {
	out := &Trace{Requests: make([]Request, 0, len(t.Requests)+len(other.Requests))}
	out.Requests = append(out.Requests, t.Requests...)
	out.Requests = append(out.Requests, other.Requests...)
	out.Sort()
	return out
}

// ScaleTime multiplies every arrival time by factor, changing workload
// intensity while preserving the arrival pattern's shape.
func (t *Trace) ScaleTime(factor float64) *Trace {
	if factor <= 0 {
		panic(fmt.Sprintf("trace: non-positive time scale %v", factor))
	}
	out := &Trace{Requests: append([]Request(nil), t.Requests...)}
	for i := range out.Requests {
		out.Requests[i].Arrival = sim.Time(float64(out.Requests[i].Arrival) * factor)
	}
	return out
}

// ShiftTime returns a copy of the trace with every arrival offset by
// delta (the scenario compiler places a phase on the composed timeline
// with it). It panics if any shifted arrival would be negative.
func (t *Trace) ShiftTime(delta sim.Time) *Trace {
	out := &Trace{Requests: append([]Request(nil), t.Requests...)}
	for i := range out.Requests {
		a := out.Requests[i].Arrival + delta
		if a < 0 {
			panic(fmt.Sprintf("trace: shift by %v makes arrival %v negative", delta, out.Requests[i].Arrival))
		}
		out.Requests[i].Arrival = a
	}
	return out
}

// Rebase returns a copy of the trace with arrivals rebased so the first
// request (in time order) arrives at 0. The trace must be sorted.
func (t *Trace) Rebase() *Trace {
	if len(t.Requests) == 0 {
		return &Trace{}
	}
	return t.ShiftTime(-t.Requests[0].Arrival)
}

// TotalBytes returns the sum of request sizes.
func (t *Trace) TotalBytes() int64 {
	var s int64
	for _, r := range t.Requests {
		s += int64(r.Size)
	}
	return s
}
