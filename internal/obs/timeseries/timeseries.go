// Package timeseries is the flight recorder: the time dimension of the
// observability layer. A Recorder samples a metrics registry
// periodically — on the sim clock, as ordinary engine events, so
// recording is deterministic and replayable — and stores what it sees in
// fixed-capacity ring-buffered series: every counter and gauge,
// including the read-through series the model layers register for their
// own state (queue depth, ECN marks, per-flow rate and alpha, SRC
// weight, TXQ credit, in-flight commands), plus selected histogram
// quantiles. The registry is the recorder's only input.
//
// Recording is change-driven: a sample is stored only when the value
// differs from the previously stored one (for counters, only when the
// per-interval delta is nonzero). Idle series therefore cost nothing,
// and reconstruction is step interpolation — exactly how Perfetto
// renders counter tracks.
//
// Like the rest of obs, every entry point is nil-safe: a nil *Recorder
// is a no-op, so model code can be wired unconditionally and a run with
// recording off takes the exact same decisions in the exact same order.
// The Recorder itself is single-threaded engine-side state; exports and
// Dump produce copies safe to hand to other goroutines.
package timeseries

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"srcsim/internal/obs"
	"srcsim/internal/sim"
)

// Kind classifies a series' sampling semantics.
type Kind uint8

const (
	// Gauge series store the sampled value itself.
	Gauge Kind = iota
	// Counter series store the per-interval delta of a monotonically
	// accumulating total (rates, once divided by the sample interval).
	Counter
)

// String renders the kind for exports.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// DefaultInterval is the sample period when the Recorder leaves it zero.
const DefaultInterval = 100 * sim.Microsecond

// DefaultCapacity is the per-series ring capacity when unset.
const DefaultCapacity = 1 << 14

// Series is one recorded timeline. Timestamps are non-decreasing within
// a series; when the ring wraps, the oldest samples are dropped and
// counted.
type Series struct {
	Track string
	Name  string
	Kind  Kind

	t       []int64 // sim-time nanoseconds, ring-ordered
	v       []float64
	next    int
	wrapped bool
	dropped uint64
}

// Len returns the number of retained samples.
func (s *Series) Len() int {
	if s.wrapped {
		return len(s.t)
	}
	return s.next
}

// Dropped returns the number of samples evicted by ring wrap.
func (s *Series) Dropped() uint64 { return s.dropped }

// append stores one sample, evicting the oldest on a full ring.
func (s *Series) append(at sim.Time, v float64) {
	if s.next < cap(s.t) && !s.wrapped {
		s.t = append(s.t, int64(at))
		s.v = append(s.v, v)
		s.next++
		if s.next == cap(s.t) {
			s.next = 0
			s.wrapped = true
		}
		return
	}
	s.t[s.next] = int64(at)
	s.v[s.next] = v
	s.next++
	s.dropped++
	if s.next == len(s.t) {
		s.next = 0
	}
}

// Samples returns retained (time, value) pairs in chronological order,
// as copies.
func (s *Series) Samples() (ts []int64, vs []float64) {
	n := s.Len()
	ts = make([]int64, 0, n)
	vs = make([]float64, 0, n)
	if s.wrapped {
		ts = append(ts, s.t[s.next:]...)
		vs = append(vs, s.v[s.next:]...)
		ts = append(ts, s.t[:s.next]...)
		vs = append(vs, s.v[:s.next]...)
		return ts, vs
	}
	ts = append(ts, s.t[:s.next]...)
	vs = append(vs, s.v[:s.next]...)
	return ts, vs
}

// Recorder is the flight recorder. The zero value records with defaults;
// a nil *Recorder is a no-op everywhere.
type Recorder struct {
	// Interval is the sample period in sim time (default 100 µs).
	Interval sim.Time
	// Capacity bounds each series' ring (default 16384 samples).
	Capacity int

	// series is keyed by registry key (plus a ":stat" suffix for
	// histogram sub-series).
	series map[string]*Series
	// prev holds each series' last raw observation — the subtrahend for
	// counter deltas and the change filter for gauges.
	prev map[string]float64

	// Session state while attached to an engine via Start.
	eng   *sim.Engine
	reg   *obs.Registry
	ticks uint64
}

// New returns a Recorder with the given sample interval and per-series
// ring capacity (zero values pick the defaults).
func New(interval sim.Time, capacity int) *Recorder {
	return &Recorder{Interval: interval, Capacity: capacity}
}

// interval returns the effective sample period.
func (r *Recorder) interval() sim.Time {
	if r.Interval > 0 {
		return r.Interval
	}
	return DefaultInterval
}

// capacity returns the effective ring capacity.
func (r *Recorder) capacity() int {
	if r.Capacity > 0 {
		return r.Capacity
	}
	return DefaultCapacity
}

// Ticks returns the number of sample instants executed so far.
func (r *Recorder) Ticks() uint64 {
	if r == nil {
		return 0
	}
	return r.ticks
}

// NumSeries returns the number of distinct recorded series.
func (r *Recorder) NumSeries() int {
	if r == nil {
		return 0
	}
	return len(r.series)
}

// Start attaches the recorder to an engine: a sample fires immediately
// (capturing the t=0 state) and then every Interval, as ordinary engine
// events. Each sample snapshots reg: every counter and gauge becomes a
// series (see split for its track and name), and each histogram
// contributes count/mean/p50/p99/p999 sub-series. The returned stop
// cancels the periodic event and takes one final sample at the current
// instant, so the end-of-run state is always recorded. Nil-safe: a nil
// recorder returns a no-op stop.
func (r *Recorder) Start(eng *sim.Engine, reg *obs.Registry) (stop func()) {
	if r == nil {
		return func() {}
	}
	if r.series == nil {
		r.series = make(map[string]*Series)
		r.prev = make(map[string]float64)
	}
	r.eng, r.reg = eng, reg
	cancel := eng.Sampler(r.interval(), r.tick)
	return func() {
		cancel()
		r.tick() // flush: record the drain-time state
		r.eng, r.reg = nil, nil
	}
}

// tick is one sample instant: a sweep of the registry snapshot.
func (r *Recorder) tick() {
	now := r.eng.Now()
	r.ticks++
	snap := r.reg.Snapshot()
	for k, v := range snap.Counters {
		r.observe(now, k, "", Counter, v)
	}
	for k, v := range snap.Gauges {
		r.observe(now, k, "", Gauge, v)
	}
	for k, h := range snap.Histograms {
		r.observe(now, k, ":count", Counter, float64(h.Count))
		r.observe(now, k, ":mean", Gauge, h.Mean)
		r.observe(now, k, ":p50", Gauge, h.P50)
		r.observe(now, k, ":p99", Gauge, h.P99)
		r.observe(now, k, ":p999", Gauge, h.P999)
	}
}

// split maps a registry key "component/name{labels}" to a recorder
// track and series name. The mode label, when present, prefixes the
// track ("DCQCN-SRC/netsim"), so CompareModes legs sharing one recorder
// land in distinct tracks; the other labels stay on the name
// ("flow_rate_gbps{flow=3}").
func split(key string) (track, name string) {
	track, name, _ = strings.Cut(key, "/")
	base, labels, ok := strings.Cut(name, "{")
	if !ok {
		return track, name
	}
	var mode string
	rest := make([]string, 0, 2)
	for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		if v, isMode := strings.CutPrefix(l, "mode="); isMode {
			mode = v
		} else {
			rest = append(rest, l)
		}
	}
	if mode != "" {
		track = mode + "/" + track
	}
	if len(rest) > 0 {
		base += "{" + strings.Join(rest, ",") + "}"
	}
	return track, base
}

// observe applies the change filter and stores one observation of the
// registry series key (stat names a histogram sub-series).
func (r *Recorder) observe(at sim.Time, key, stat string, kind Kind, raw float64) {
	id := key + stat
	s, ok := r.series[id]
	if !ok {
		track, name := split(key)
		s = &Series{Track: track, Name: name + stat, Kind: kind}
		s.t = make([]int64, 0, r.capacity())
		s.v = make([]float64, 0, r.capacity())
		r.series[id] = s
	}
	switch kind {
	case Counter:
		delta := raw - r.prev[id]
		if raw < r.prev[id] {
			// A counter below its last reading comes from a fresh
			// registry (a later run's private one): the reading itself
			// is the growth since then.
			delta = raw
		}
		if delta == 0 {
			return
		}
		r.prev[id] = raw
		s.append(at, delta)
	default:
		if prev, seen := r.prev[id]; seen && prev == raw {
			return
		}
		r.prev[id] = raw
		s.append(at, raw)
	}
}

// sorted returns the recorded series ordered by (track, name) — the
// deterministic export order, independent of map iteration.
func (r *Recorder) sorted() []*Series {
	out := make([]*Series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SeriesDump is one exported series with chronological samples — a copy,
// safe to share across goroutines (the live inspector serves these).
type SeriesDump struct {
	Track   string    `json:"track"`
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	T       []int64   `json:"t_ns"`
	V       []float64 `json:"v"`
	Dropped uint64    `json:"dropped,omitempty"`
}

// Dump copies every series (sorted by track then name), keeping at most
// the last max samples per series (max <= 0 keeps all). Nil-safe.
func (r *Recorder) Dump(max int) []SeriesDump {
	if r == nil {
		return nil
	}
	out := make([]SeriesDump, 0, len(r.series))
	for _, s := range r.sorted() {
		ts, vs := s.Samples()
		if max > 0 && len(ts) > max {
			ts, vs = ts[len(ts)-max:], vs[len(vs)-max:]
		}
		out = append(out, SeriesDump{
			Track: s.Track, Name: s.Name, Kind: s.Kind.String(),
			T: ts, V: vs, Dropped: s.dropped,
		})
	}
	return out
}

// WriteCSV writes every sample in long format — one row per sample,
// sorted by (track, name, time) — ready for any columnar tool:
//
//	track,name,kind,t_ns,value
func (r *Recorder) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := io.WriteString(w, "track,name,kind,t_ns,value\n"); err != nil {
		return err
	}
	var b strings.Builder
	for _, s := range r.sorted() {
		ts, vs := s.Samples()
		for i := range ts {
			b.Reset()
			fmt.Fprintf(&b, "%s,%s,%s,%d,%g\n", s.Track, s.Name, s.Kind, ts[i], vs[i])
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSONL writes one JSON object per series (columnar: parallel
// timestamp and value arrays), sorted by (track, name).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, d := range r.Dump(0) {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// EmitChromeCounters folds every recorded series into a trace scope as
// Chrome counter events (ph:"C"), so Perfetto renders the rate and
// queue curves as counter tracks beside the tracer's existing spans.
// Counter series are emitted as per-second rates (delta over the sample
// interval), gauges as sampled values. Nil-safe on both sides.
func (r *Recorder) EmitChromeCounters(sc *obs.Scope) {
	if r == nil || !sc.Enabled() {
		return
	}
	perSec := 1.0 / r.interval().Seconds()
	for _, s := range r.sorted() {
		ts, vs := s.Samples()
		for i := range ts {
			v := vs[i]
			if s.Kind == Counter {
				v *= perSec
			}
			sc.Counter(sim.Time(ts[i]), s.Track, s.Name, v)
		}
	}
}

// WriteChromeTrace writes the recorder's series as a standalone Chrome
// trace-event JSON file of counter tracks (open in chrome://tracing or
// Perfetto).
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	n := 16
	for _, s := range r.series {
		n += s.Len()
	}
	tr := obs.NewTracer(n)
	r.EmitChromeCounters(tr.Scope("recorder"))
	return tr.WriteChromeTrace(w)
}
