// Package obs is the simulation-wide observability layer: a
// zero-dependency metrics registry (counters, gauges, log₂ histograms,
// and read-through series over component fields) and a sim-time event
// tracer exportable as Chrome trace-event JSON (chrome://tracing /
// Perfetto).
//
// Every entry point is nil-safe: a nil *Registry hands out nil handles,
// and nil handles ignore updates, so components can be instrumented
// unconditionally and pay only a pointer test when observability is off.
// This is the layer's hard guarantee — with no registry and no tracer
// attached, instrumented code takes the exact same decisions in the
// exact same order, preserving the engine's determinism invariant.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"srcsim/internal/stats"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey renders component/name{k=v,...} with labels sorted by key,
// so the same logical series always resolves to the same handle.
func seriesKey(component, name string, labels []Label) string {
	if len(labels) == 0 {
		return component + "/" + name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(component)
	b.WriteByte('/')
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically accumulating series. The zero value is
// usable; a nil Counter ignores updates.
type Counter struct {
	v float64
}

// Add folds delta in; no-op on a nil handle.
func (c *Counter) Add(delta float64) {
	if c == nil {
		return
	}
	c.v += delta
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value series with high/low-water convenience setters.
// A nil Gauge ignores updates.
type Gauge struct {
	v   float64
	set bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	g.set = true
}

// SetMax keeps the largest value ever offered (high-water mark).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	if !g.set || v > g.v {
		g.v = v
		g.set = true
	}
}

// SetMin keeps the smallest value ever offered (low-water mark).
func (g *Gauge) SetMin(v float64) {
	if g == nil {
		return
	}
	if !g.set || v < g.v {
		g.v = v
		g.set = true
	}
}

// Value returns the current value (0 on nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a log₂-bucketed distribution series backed by
// stats.Histogram. A nil Histogram ignores observations.
type Histogram struct {
	h stats.Histogram
}

// Observe folds one sample in.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.h.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.h.Count()
}

// Quantile estimates the q-th quantile (0 on nil).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.h.Quantile(q)
}

// Fold names how a read-through gauge settles into a stored value when
// the run that registered it ends (see Registry.Fold).
type Fold uint8

const (
	// Probe gauges are recorder-only: live snapshots read them, and the
	// fold drops them without storing a value.
	Probe Fold = iota
	// Last stores the final reading, like Gauge.Set.
	Last
	// Max keeps the high-water mark, like Gauge.SetMax.
	Max
	// Min keeps the low-water mark, like Gauge.SetMin.
	Min
)

// settle offers one reading to g through fold.
func (g *Gauge) settle(fold Fold, v float64) {
	switch fold {
	case Last:
		g.Set(v)
	case Max:
		g.SetMax(v)
	case Min:
		g.SetMin(v)
	}
}

// readThrough is one registry key served by component closures until the
// next Fold. Every registration of the key appends its closure.
type readThrough struct {
	counter bool
	fold    Fold
	fs      []func() float64
}

// sum adds up every registration's reading.
func (rt *readThrough) sum() float64 {
	var v float64
	for _, f := range rt.fs {
		v += f()
	}
	return v
}

// settle offers every registration's reading to g, in registration order.
func (rt *readThrough) settle(g *Gauge) {
	for _, f := range rt.fs {
		g.settle(rt.fold, f())
	}
}

// Registry resolves metric series to handles by component/name/labels.
// Handle resolution is mutex-guarded; handle updates are not — the
// simulation kernel is single-threaded by design, and handles must only
// be touched from event callbacks.
//
// A component whose own field already holds a quantity registers it as
// a read-through series (CounterFunc, GaugeFunc) instead of mirroring it
// into a handle: snapshots call the closure, and Fold settles the
// reading into a stored value when the run ends.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]*readThrough
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]*readThrough),
	}
}

// resolve returns m[k], creating it if absent. The caller holds r.mu.
func resolve[T any](m map[string]*T, k string) *T {
	v, ok := m[k]
	if !ok {
		v = new(T)
		m[k] = v
	}
	return v
}

// Counter resolves (creating if absent) a counter series. Returns nil on
// a nil registry.
func (r *Registry) Counter(component, name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := seriesKey(component, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolve(r.counters, k)
}

// Gauge resolves (creating if absent) a gauge series. Returns nil on a
// nil registry.
func (r *Registry) Gauge(component, name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := seriesKey(component, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolve(r.gauges, k)
}

// Histogram resolves (creating if absent) a histogram series. Returns
// nil on a nil registry.
func (r *Registry) Histogram(component, name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := seriesKey(component, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolve(r.hists, k)
}

// CounterFunc registers a read-through counter: snapshots report the
// key's stored total plus the sum of every registration's f, and Fold
// adds that sum to the stored total. f must be read-only — snapshots run
// as engine events. No-op on a nil registry.
func (r *Registry) CounterFunc(component, name string, f func() float64, labels ...Label) {
	r.register(seriesKey(component, name, labels), true, Probe, f)
}

// U64 adapts a uint64 counter field to a read-through closure.
func U64(p *uint64) func() float64 {
	return func() float64 { return float64(*p) }
}

// GaugeFunc registers a read-through gauge. Snapshots offer each
// registration's reading to the key's stored gauge through fold (a
// Probe gauge reports the sum of its readings instead), and Fold stores
// the result — except for Probe gauges, which leave nothing behind. f
// must be read-only. No-op on a nil registry.
func (r *Registry) GaugeFunc(component, name string, fold Fold, f func() float64, labels ...Label) {
	r.register(seriesKey(component, name, labels), false, fold, f)
}

func (r *Registry) register(k string, counter bool, fold Fold, f func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.funcs[k]
	if !ok {
		rt = &readThrough{counter: counter, fold: fold}
		r.funcs[k] = rt
	}
	rt.fs = append(rt.fs, f)
}

// Fold settles every read-through series into its stored value — sum
// for counters, the registered Fold for gauges, nothing for probes —
// and drops the closures, so the components they read become
// unreachable from the registry. Runs that share a registry fold in
// turn, which accumulates exactly like handle updates would. No-op on a
// nil registry.
func (r *Registry) Fold() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, rt := range r.funcs {
		switch {
		case rt.counter:
			resolve(r.counters, k).Add(rt.sum())
		case rt.fold != Probe:
			rt.settle(resolve(r.gauges, k))
		}
	}
	clear(r.funcs)
}

// NumSeries returns the number of distinct series (0 on nil).
func (r *Registry) NumSeries() int {
	return r.Snapshot().NumSeries()
}

// HistogramSnapshot is the JSON digest of one histogram series.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Snapshot is a point-in-time copy of every series in a registry.
// encoding/json sorts map keys, so marshalling a snapshot is
// deterministic.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// NumSeries returns the number of series captured in the snapshot.
func (s Snapshot) NumSeries() int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// Snapshot copies the registry's current state, reading every
// read-through series.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := make(map[string]float64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c.v
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g.v
	}
	for k, rt := range r.funcs {
		switch {
		case rt.counter:
			counters[k] += rt.sum()
		case rt.fold == Probe:
			gauges[k] = rt.sum()
		default:
			var g Gauge
			if stored := r.gauges[k]; stored != nil {
				g = *stored
			}
			rt.settle(&g)
			gauges[k] = g.v
		}
	}
	if len(counters) > 0 {
		snap.Counters = counters
	}
	if len(gauges) > 0 {
		snap.Gauges = gauges
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, h := range r.hists {
			snap.Histograms[k] = HistogramSnapshot{
				Count: h.h.Count(),
				Mean:  h.h.Mean(),
				P50:   h.h.Quantile(0.5),
				P99:   h.h.Quantile(0.99),
				P999:  h.h.Quantile(0.999),
				Min:   h.h.Min(),
				Max:   h.h.Max(),
			}
		}
	}
	return snap
}

// WithoutComponent returns a copy of the snapshot with every series of
// the named component removed (keys are "component/name{labels}"). The
// sweep orchestrator drops the "sim" component before persisting
// per-job snapshots: engine profiling gauges are wall-clock-derived and
// would break the byte-identity of otherwise deterministic artifacts.
func (s Snapshot) WithoutComponent(component string) Snapshot {
	prefix := component + "/"
	var out Snapshot
	keep := func(k string) bool { return !strings.HasPrefix(k, prefix) }
	if len(s.Counters) > 0 {
		out.Counters = make(map[string]float64)
		for k, v := range s.Counters {
			if keep(k) {
				out.Counters[k] = v
			}
		}
		if len(out.Counters) == 0 {
			out.Counters = nil
		}
	}
	if len(s.Gauges) > 0 {
		out.Gauges = make(map[string]float64)
		for k, v := range s.Gauges {
			if keep(k) {
				out.Gauges[k] = v
			}
		}
		if len(out.Gauges) == 0 {
			out.Gauges = nil
		}
	}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot)
		for k, v := range s.Histograms {
			if keep(k) {
				out.Histograms[k] = v
			}
		}
		if len(out.Histograms) == 0 {
			out.Histograms = nil
		}
	}
	return out
}

// MergeSnapshots folds snapshots from independent runs (e.g. the jobs
// of one sweep campaign) into a cross-run aggregate:
//
//   - counters sum — they are totals of countable events;
//   - gauges keep the maximum — registry gauges are levels and
//     high-water marks, so the merged value is the worst case observed
//     by any run;
//   - histogram digests combine exactly for count/min/max, exactly for
//     the mean (count-weighted), and approximately for the quantiles
//     (count-weighted mean of the per-run estimates — adequate for a
//     campaign overview; per-job snapshots keep the precise values).
//
// Merging is order-independent for every field except the quantile
// approximation, so callers that need byte-stable output must merge in
// a deterministic order (the sweep runner merges in job-ID order).
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		for k, v := range s.Counters {
			if out.Counters == nil {
				out.Counters = make(map[string]float64)
			}
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			if out.Gauges == nil {
				out.Gauges = make(map[string]float64)
			}
			if cur, ok := out.Gauges[k]; !ok || v > cur {
				out.Gauges[k] = v
			}
		}
		for k, h := range s.Histograms {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			cur, ok := out.Histograms[k]
			if !ok {
				out.Histograms[k] = h
				continue
			}
			out.Histograms[k] = mergeHistDigest(cur, h)
		}
	}
	return out
}

// mergeHistDigest combines two histogram digests (see MergeSnapshots
// for the semantics).
func mergeHistDigest(a, b HistogramSnapshot) HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	total := a.Count + b.Count
	wa := float64(a.Count) / float64(total)
	wb := float64(b.Count) / float64(total)
	m := HistogramSnapshot{
		Count: total,
		Mean:  a.Mean*wa + b.Mean*wb,
		P50:   a.P50*wa + b.P50*wb,
		P99:   a.P99*wa + b.P99*wb,
		P999:  a.P999*wa + b.P999*wb,
		Min:   a.Min,
		Max:   a.Max,
	}
	if b.Min < m.Min {
		m.Min = b.Min
	}
	if b.Max > m.Max {
		m.Max = b.Max
	}
	return m
}

// WriteJSON writes the current snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("obs: snapshot encode: %w", err)
	}
	return nil
}
