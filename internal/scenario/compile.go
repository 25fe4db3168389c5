package scenario

import (
	"fmt"

	"srcsim/internal/faults"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// PhaseWindow is one compiled phase's placement on the scenario
// timeline.
type PhaseWindow struct {
	Name string `json:"name"`
	// Start and End bound the phase's window in absolute scenario time.
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`
	// Requests is the phase's contribution to the merged trace (after
	// intensity scaling and budget cuts).
	Requests int `json:"requests"`
	// Overlay mirrors the phase's composition mode.
	Overlay bool `json:"overlay,omitempty"`
}

// Compiled is a scenario realised at a seed: the merged trace (every
// request stream-tagged with its phase name), the absolute-time fault
// schedule (nil when no phase declares faults), and the phase windows
// for reporting.
type Compiled struct {
	Trace  *trace.Trace
	Faults *faults.Schedule
	Phases []PhaseWindow
}

// phaseSeed derives a phase's workload seed from the master seed and
// the phase name (FNV-1a then a splitmix64 finaliser), so phases draw
// independent streams and renaming a phase reshuffles only that phase.
func phaseSeed(master uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= master
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// msToSim converts a millisecond knob to simulation time.
func msToSim(ms float64) sim.Time { return sim.Time(ms * float64(sim.Millisecond)) }

// Compile validates the spec and realises it at the given seed (zero
// falls back to Spec.Seed). The result is a pure function of
// (spec, seed): trace files referenced by phases are read here, but
// generated phases and the composition itself are deterministic.
func (s *Spec) Compile(seed uint64) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = s.Seed
	}
	var (
		cursor, anchor sim.Time
		merged         []trace.Request
		events         []faults.Event
		windows        []PhaseWindow
	)
	for pi, ph := range s.Phases {
		base, err := s.buildPhase(&ph, phaseSeed(seed, ph.Name))
		if err != nil {
			return nil, fmt.Errorf("scenario %s: phase %s: %w", s.Name, ph.Name, err)
		}
		if ph.Intensity > 0 && ph.Intensity != 1 {
			base = base.ScaleTime(1 / ph.Intensity)
		}
		if ph.Requests > 0 && base.Len() > ph.Requests {
			base.Requests = base.Requests[:ph.Requests]
		}
		dur := base.Duration()
		if ph.DurationMS > 0 {
			limit := msToSim(ph.DurationMS)
			base = base.Window(0, limit)
			dur = limit
		}
		start := cursor
		if ph.Overlay {
			start = anchor + msToSim(ph.StartMS)
		} else {
			anchor = start
		}
		for _, r := range base.Requests {
			r.Arrival += start
			r.Stream = ph.Name
			// Pack the phase index into the ID so the final sort's
			// (Arrival, ID) tie-break is phase-ordered and deterministic;
			// sequential IDs are reassigned after the merge.
			r.ID = uint64(pi)<<40 | r.ID
			merged = append(merged, r)
		}
		for _, ev := range ph.Faults {
			ev.At += start
			events = append(events, ev)
		}
		if !ph.Overlay {
			cursor = start + dur
		}
		windows = append(windows, PhaseWindow{
			Name: ph.Name, Start: start, End: start + dur,
			Requests: base.Len(), Overlay: ph.Overlay,
		})
	}
	out := &trace.Trace{Requests: merged}
	out.Sort()
	for i := range out.Requests {
		out.Requests[i].ID = uint64(i)
	}
	if out.Len() == 0 {
		return nil, fmt.Errorf("scenario %s: compiled to an empty trace", s.Name)
	}
	var sched *faults.Schedule
	if len(events) > 0 {
		sched = &faults.Schedule{Events: events}
		if err := sched.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: compiled fault schedule: %w", s.Name, err)
		}
	}
	return &Compiled{Trace: out, Faults: sched, Phases: windows}, nil
}

// buildPhase materialises one phase's base trace, rebased to start at
// zero and sorted.
func (s *Spec) buildPhase(ph *Phase, seed uint64) (*trace.Trace, error) {
	if ph.Workload != nil {
		return buildWorkload(ph.Workload, seed)
	}
	tr, err := loadTraceFile(ph.Trace)
	if err != nil {
		return nil, err
	}
	tr.Sort()
	tr = tr.Rebase()
	if ph.Trace.Refit {
		cfg, err := Fit(tr, seed)
		if err != nil {
			return nil, fmt.Errorf("refit: %w", err)
		}
		return workload.Synthetic(cfg)
	}
	return tr, nil
}

func buildWorkload(w *WorkloadRef, seed uint64) (*trace.Trace, error) {
	switch w.Kind {
	case KindVDI:
		return workload.VDILike(seed, w.Count)
	case KindCBS:
		return workload.CBSLike(seed, w.Count)
	case KindMicro:
		return workload.Micro(workload.MicroConfig{
			Seed:      seed,
			ReadCount: w.Reads, WriteCount: w.Writes,
			ReadInterArrival:  sim.Time(w.ReadIAUS * float64(sim.Microsecond)),
			WriteInterArrival: sim.Time(w.WriteIAUS * float64(sim.Microsecond)),
			ReadMeanSize:      w.ReadSize, WriteMeanSize: w.WriteSize,
		})
	case KindSynthetic:
		iaSCV := w.IASCV
		if iaSCV == 0 {
			iaSCV = 1
		}
		return workload.Synthetic(workload.SyntheticConfig{
			Seed:      seed,
			ReadCount: w.Reads, WriteCount: w.Writes,
			ReadInterArrival:    sim.Time(w.ReadIAUS * float64(sim.Microsecond)),
			WriteInterArrival:   sim.Time(w.WriteIAUS * float64(sim.Microsecond)),
			ReadInterArrivalSCV: iaSCV, WriteInterArrivalSCV: iaSCV,
			ReadACF1: w.ACF1, WriteACF1: w.ACF1,
			ReadMeanSize: w.ReadSize, WriteMeanSize: w.WriteSize,
			ReadSizeSCV: w.SizeSCV, WriteSizeSCV: w.SizeSCV,
		})
	default:
		return nil, fmt.Errorf("unknown workload kind %q", w.Kind)
	}
}

func loadTraceFile(ref *TraceRef) (*trace.Trace, error) {
	format := ref.Format
	if format == "" {
		format = "jsonl"
	}
	return trace.ReadFile(ref.Path, format)
}

// Fit refits an ingested trace into a reusable synthetic workload
// config: per-direction means, SCVs, and lag-1 autocorrelation from
// trace.Extract, clamped into the feasible region of the MMPP(2)
// moment-matching fit (dist.FitMMPP2) the same way the paper's
// KPC-Toolbox pipeline does (Sec. IV-A). Regenerating with
// workload.Synthetic reproduces the trace's statistics — not its exact
// requests — at any seed and count.
func Fit(tr *trace.Trace, seed uint64) (workload.SyntheticConfig, error) {
	if tr.Len() == 0 {
		return workload.SyntheticConfig{}, fmt.Errorf("scenario: cannot fit an empty trace")
	}
	st := trace.Extract(tr)
	dir := func(d trace.DirStats) (count int, meanIA sim.Time, iaSCV, acf1 float64, meanSize int, sizeSCV float64) {
		count = d.Count
		if count == 0 {
			return
		}
		meanIA = sim.Time(d.MeanInterArrival)
		if meanIA <= 0 {
			meanIA = 1
		}
		iaSCV = d.InterArrivalSCV
		if iaSCV < 1 {
			// MMPP(2) cannot express sub-exponential variability; the
			// exponential path of workload.Synthetic takes over at 1.
			iaSCV = 1
		}
		// Feasible lag-1 autocorrelation for the fitted SCV.
		acf1 = d.InterArrivalACF1
		if acf1 < 0 {
			acf1 = 0
		}
		if lim := (iaSCV - 1) / (2 * iaSCV); acf1 > lim {
			acf1 = lim
		}
		if acf1 > 0.45 {
			acf1 = 0.45
		}
		meanSize = int(d.MeanSize)
		if meanSize < 1 {
			meanSize = 1
		}
		sizeSCV = d.SizeSCV
		if sizeSCV < 0 {
			sizeSCV = 0
		}
		return
	}
	cfg := workload.SyntheticConfig{Seed: seed}
	cfg.ReadCount, cfg.ReadInterArrival, cfg.ReadInterArrivalSCV, cfg.ReadACF1, cfg.ReadMeanSize, cfg.ReadSizeSCV = dir(st.Read)
	cfg.WriteCount, cfg.WriteInterArrival, cfg.WriteInterArrivalSCV, cfg.WriteACF1, cfg.WriteMeanSize, cfg.WriteSizeSCV = dir(st.Write)
	return cfg, nil
}
