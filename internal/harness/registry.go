package harness

// The experiment registry: every paper experiment is registered as an
// enumerable spec with named, defaulted, string-typed parameters and a
// uniform run signature, so front-ends (cmd/srcsim, cmd/sweep, the
// campaign orchestrator in internal/sweep) can list, validate, and run
// any experiment without a per-experiment switch. Registered Run
// functions must be deterministic functions of (params, shared TPM):
// the sweep cache content-addresses their output by exactly those
// inputs.

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/netsim"
	"srcsim/internal/ssd"
	"srcsim/internal/sweep/cache"
	"srcsim/internal/trace"
)

// TPMKind names a shared trained throughput-prediction model an
// experiment depends on. Front-ends provide models lazily through
// Env.TPM, so experiments that need none never trigger training.
type TPMKind int

const (
	// TPMNone: the experiment runs without a trained model.
	TPMNone TPMKind = iota
	// TPMCongestion is the Sec. IV-D model: the target-array SSD-A
	// device (TrainCongestionTPM).
	TPMCongestion
	// TPMFig9 is the dynamic-control model: the Fig9Config SSD-B array.
	TPMFig9
)

// Train fits the kind's model behind the content-addressed artifact
// cache (devrun.TrainTPMCached; a nil cache always trains), reporting
// whether it was a cache hit. Every front-end resolves models through
// here, so a kind always trains on the same device.
func (k TPMKind) Train(c *cache.Cache, count int, seed uint64) (*core.TPM, bool, error) {
	switch k {
	case TPMCongestion:
		return devrun.TrainTPMCached(c, TargetArrayConfig(ssd.ConfigA()), count, seed)
	case TPMFig9:
		return devrun.TrainTPMCached(c, Fig9Config(), count, seed)
	default:
		return nil, false, fmt.Errorf("harness: no model to train for TPM kind %v", k)
	}
}

// String implements fmt.Stringer.
func (k TPMKind) String() string {
	switch k {
	case TPMNone:
		return "none"
	case TPMCongestion:
		return "congestion"
	case TPMFig9:
		return "fig9"
	default:
		return fmt.Sprintf("TPMKind(%d)", int(k))
	}
}

// Param declares one tunable of a registered experiment.
type Param struct {
	Name    string
	Default string
	Help    string
}

// Params is a fully resolved parameter set: every declared name is
// present (defaults filled in by Experiment.Resolve).
type Params map[string]string

// Int parses the named parameter as an int.
func (p Params) Int(name string) (int, error) {
	v, err := strconv.Atoi(p[name])
	if err != nil {
		return 0, fmt.Errorf("harness: param %s=%q: %w", name, p[name], err)
	}
	return v, nil
}

// Uint64 parses the named parameter as a uint64.
func (p Params) Uint64(name string) (uint64, error) {
	v, err := strconv.ParseUint(p[name], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("harness: param %s=%q: %w", name, p[name], err)
	}
	return v, nil
}

// Float parses the named parameter as a float64.
func (p Params) Float(name string) (float64, error) {
	v, err := strconv.ParseFloat(p[name], 64)
	if err != nil {
		return 0, fmt.Errorf("harness: param %s=%q: %w", name, p[name], err)
	}
	return v, nil
}

// Ints parses the named parameter as a comma-separated int list.
func (p Params) Ints(name string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(p[name], ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("harness: param %s=%q: %w", name, p[name], err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Env carries the shared context a front-end provides to experiment
// runs. The zero value works for experiments that need neither a model
// nor spec hooks.
type Env struct {
	// TPM lazily resolves a shared trained model; nil fails experiments
	// that declare a TPM dependency.
	TPM func(TPMKind) (*core.TPM, error)
	// Mods adjust every cluster run's spec (attach observability,
	// guard/cancellation hooks) without changing the experiment.
	Mods []func(*cluster.Spec)
}

func (e *Env) tpm(kind TPMKind) (*core.TPM, error) {
	if e == nil || e.TPM == nil {
		return nil, fmt.Errorf("harness: experiment needs the %v TPM but the environment provides none", kind)
	}
	return e.TPM(kind)
}

// Output is one experiment run's result: the rendered figure/table
// (exactly what the serial CLI prints) and the typed machine-readable
// data. Data must marshal to deterministic JSON — the sweep cache and
// the determinism matrix compare those bytes.
type Output struct {
	Text string
	Data any
}

// Experiment is one registered, enumerable experiment.
type Experiment struct {
	Name string
	// Title is a one-line synopsis for listings.
	Title string
	// TPM declares the shared model dependency (TPMNone when
	// self-contained).
	TPM TPMKind
	// Params declares the tunables; Resolve fills defaults.
	Params []Param
	// Run executes the experiment with fully resolved params.
	Run func(env *Env, p Params) (*Output, error)
}

// Param looks up a declared parameter by name.
func (e *Experiment) Param(name string) (Param, bool) {
	for _, p := range e.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Resolve overlays overrides on the declared defaults. Unknown override
// names are an error, so a typo in a campaign grid fails expansion
// instead of silently sweeping a default.
func (e *Experiment) Resolve(overrides map[string]string) (Params, error) {
	p := make(Params, len(e.Params))
	for _, d := range e.Params {
		p[d.Name] = d.Default
	}
	names := make([]string, 0, len(overrides))
	for name := range overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := e.Param(name); !ok {
			return nil, fmt.Errorf("harness: experiment %s has no parameter %q", e.Name, name)
		}
		p[name] = overrides[name]
	}
	return p, nil
}

// experiments is the registry, in listing order.
var experiments []*Experiment

// register adds an experiment at package init.
func register(e *Experiment) {
	for _, have := range experiments {
		if have.Name == e.Name {
			panic("harness: duplicate experiment " + e.Name)
		}
	}
	experiments = append(experiments, e)
}

// Experiments returns the registered experiments in listing order. The
// returned slice is shared; do not mutate it.
func Experiments() []*Experiment { return experiments }

// LookupExperiment finds a registered experiment by name.
func LookupExperiment(name string) (*Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// ExperimentNames returns the registered names in listing order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// FprintExperiments renders the registry: every experiment with its
// model dependency and tunable parameters with defaults (the output of
// `srcsim -list` and `sweep -list`).
func FprintExperiments(w io.Writer) {
	fmt.Fprintln(w, "registered experiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-11s %s", e.Name, e.Title)
		if e.TPM != TPMNone {
			fmt.Fprintf(w, " (needs %v TPM)", e.TPM)
		}
		fmt.Fprintln(w)
		for _, p := range e.Params {
			fmt.Fprintf(w, "      -%-10s %-8s %s\n", p.Name, "["+p.Default+"]", p.Help)
		}
	}
}

// ParseCC maps a congestion-control name to its algorithm through
// netsim's CC registry, so a newly registered scheme is addressable
// from every experiment's cc parameter without touching the harness.
func ParseCC(name string) (netsim.CCAlg, error) {
	return netsim.ParseCCAlg(name)
}

// ccParamHelp enumerates the registered schemes for cc-param help
// strings.
func ccParamHelp() string {
	return "congestion control: " + strings.Join(netsim.CCNames(), " | ")
}

// ParseSSD maps a Table II device letter to its config.
func ParseSSD(name string) (ssd.Config, error) {
	switch name {
	case "A":
		return ssd.ConfigA(), nil
	case "B":
		return ssd.ConfigB(), nil
	case "C":
		return ssd.ConfigC(), nil
	default:
		return ssd.Config{}, fmt.Errorf("harness: unknown SSD %q (want A, B, or C)", name)
	}
}

// CongestionDigests is the machine-readable form of a paired
// DCQCN-only / DCQCN-SRC run.
type CongestionDigests struct {
	Baseline       cluster.Digest `json:"baseline"`
	SRC            cluster.Digest `json:"src"`
	ImprovementPct float64        `json:"improvement_pct"`
}

func digests(res *CongestionResult) CongestionDigests {
	return CongestionDigests{
		Baseline:       res.Baseline.Digest(),
		SRC:            res.SRC.Digest(),
		ImprovementPct: res.Improvement() * 100,
	}
}

// Fig10Digest is one intensity level's digest pair.
type Fig10Digest struct {
	Level string `json:"level"`
	CongestionDigests
}

// render buffers a Fprint-style renderer into a string.
func render(f func(io.Writer)) string {
	var buf bytes.Buffer
	f(&buf)
	return buf.String()
}

func init() {
	register(&Experiment{
		Name:  "fig2",
		Title: "analytic motivation: aggregate throughput under a congestion cut",
		Params: []Param{
			{Name: "cut_factor", Default: "0.5", Help: "DCQCN sending-rate cut applied to reads"},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			cut, err := p.Float("cut_factor")
			if err != nil {
				return nil, err
			}
			fp := DefaultFig2Params()
			fp.CutFactor = cut
			rows := Fig2Motivation(fp)
			return &Output{Text: render(func(w io.Writer) { FprintFig2(w, rows) }), Data: rows}, nil
		},
	})

	register(&Experiment{
		Name:  "fig5",
		Title: "weight-ratio sweep over the 4x4 micro-workload grid (single device)",
		Params: []Param{
			{Name: "ssd", Default: "A", Help: "Table II device: A, B, or C"},
			{Name: "weights", Default: "1,2,3,4,5,6,7,8", Help: "comma-separated SSQ weight ratios"},
			{Name: "count", Default: "2500", Help: "requests per direction per cell"},
			{Name: "seed", Default: "1", Help: "workload seed"},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			cfg, count, seed, err := trainParams(p)
			if err != nil {
				return nil, err
			}
			ws, err := p.Ints("weights")
			if err != nil {
				return nil, err
			}
			cells, err := Fig5WeightSweep(cfg, ws, count, seed)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintFig5(w, cells) }), Data: cells}, nil
		},
	})

	register(&Experiment{
		Name:  "fig7",
		Title: "VDI congestion timeline, DCQCN-only vs DCQCN-SRC (Figs. 7+8)",
		TPM:   TPMCongestion,
		Params: []Param{
			{Name: "requests", Default: "2000", Help: "write-request count (reads get 2x)"},
			{Name: "seed", Default: "7", Help: "workload seed"},
			{Name: "cc", Default: "dcqcn", Help: ccParamHelp()},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			requests, err := p.Int("requests")
			if err != nil {
				return nil, err
			}
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			cc, err := ParseCC(p["cc"])
			if err != nil {
				return nil, err
			}
			tpm, err := env.tpm(TPMCongestion)
			if err != nil {
				return nil, err
			}
			res, err := Fig7ThroughputCC(tpm, requests, seed, cc, env.Mods...)
			if err != nil {
				return nil, err
			}
			text := render(func(w io.Writer) {
				FprintFig7(w, res)
				fmt.Fprintln(w)
				FprintFig8(w, res)
			})
			return &Output{Text: text, Data: digests(res)}, nil
		},
	})

	register(&Experiment{
		Name:  "fig9",
		Title: "dynamic throughput adjustment under synthetic congestion events",
		TPM:   TPMFig9,
		Params: []Param{
			{Name: "seed", Default: "5", Help: "workload seed"},
			{Name: "events", Default: "", Help: "comma-separated ms:Gbps congestion events (empty: the paper's 60:6,100:3,140:6,180:10)"},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			events, err := parseEvents(p["events"])
			if err != nil {
				return nil, err
			}
			tpm, err := env.tpm(TPMFig9)
			if err != nil {
				return nil, err
			}
			res, err := Fig9DynamicControl(tpm, events, 0, seed)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintFig9(w, res) }), Data: res}, nil
		},
	})

	register(&Experiment{
		Name:  "fig10",
		Title: "workload-intensity sensitivity (light/moderate/heavy)",
		TPM:   TPMCongestion,
		Params: []Param{
			{Name: "seconds", Default: "0.06", Help: "trace length in seconds"},
			{Name: "seed", Default: "13", Help: "workload seed"},
			{Name: "cc", Default: "dcqcn", Help: ccParamHelp()},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			seconds, err := p.Float("seconds")
			if err != nil {
				return nil, err
			}
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			cc, err := ParseCC(p["cc"])
			if err != nil {
				return nil, err
			}
			tpm, err := env.tpm(TPMCongestion)
			if err != nil {
				return nil, err
			}
			rows, err := Fig10IntensityCC(tpm, seconds, seed, cc, env.Mods...)
			if err != nil {
				return nil, err
			}
			data := make([]Fig10Digest, len(rows))
			for i, r := range rows {
				data[i] = Fig10Digest{Level: r.Level.String(), CongestionDigests: digests(r.Result)}
			}
			return &Output{Text: render(func(w io.Writer) { FprintFig10(w, rows) }), Data: data}, nil
		},
	})

	register(&Experiment{
		Name:  "table4",
		Title: "in-cast ratio analysis (2:1 .. 4:4)",
		TPM:   TPMCongestion,
		Params: []Param{
			{Name: "seconds", Default: "0.08", Help: "trace length in seconds"},
			{Name: "seed", Default: "11", Help: "workload seed"},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			seconds, err := p.Float("seconds")
			if err != nil {
				return nil, err
			}
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			tpm, err := env.tpm(TPMCongestion)
			if err != nil {
				return nil, err
			}
			rows, err := TableIV(tpm, nil, seconds, seed, env.Mods...)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintTableIV(w, rows) }), Data: rows}, nil
		},
	})

	register(&Experiment{
		Name:  "chaos-soak",
		Title: "fault-injection soak on the congestion testbed (DCQCN-only)",
		Params: []Param{
			{Name: "requests", Default: "400", Help: "write-request count (reads get 2x)"},
			{Name: "seed", Default: "7", Help: "workload seed"},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			requests, err := p.Int("requests")
			if err != nil {
				return nil, err
			}
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			tr, err := VDITrace(seed, requests)
			if err != nil {
				return nil, err
			}
			res, err := ChaosSoak(tr)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintChaos(w, res) }), Data: res.Digest()}, nil
		},
	})

	// The three chaos-adaptation scenarios share a parameterization, a
	// renderer, and the DCQCN-SRC congestion testbed; only the disruption
	// differs.
	for _, sc := range []struct {
		name, title string
		run         func(*core.TPM, int, uint64, ...func(*cluster.Spec)) (*AdaptResult, error)
	}{
		{"adapt-aging", "adaptive SRC vs stepped SSD aging (ladder descent + recovery)", AdaptAging},
		{"adapt-phase", "adaptive SRC vs MMPP workload phase switch (in-run retraining)", AdaptPhase},
		{"adapt-failover", "adaptive SRC vs mid-run link failover (Static rung + AIMD)", AdaptFailover},
	} {
		sc := sc
		register(&Experiment{
			Name:  sc.name,
			Title: sc.title,
			TPM:   TPMCongestion,
			Params: []Param{
				{Name: "requests", Default: "600", Help: "write-request count (reads get 2x)"},
				{Name: "seed", Default: "7", Help: "workload seed"},
			},
			Run: func(env *Env, p Params) (*Output, error) {
				requests, err := p.Int("requests")
				if err != nil {
					return nil, err
				}
				seed, err := p.Uint64("seed")
				if err != nil {
					return nil, err
				}
				tpm, err := env.tpm(TPMCongestion)
				if err != nil {
					return nil, err
				}
				res, err := sc.run(tpm, requests, seed, env.Mods...)
				if err != nil {
					return nil, err
				}
				return &Output{Text: render(func(w io.Writer) { FprintAdapt(w, res) }), Data: res}, nil
			},
		})
	}

	register(&Experiment{
		Name:  "ctrl-degradation",
		Title: "in-band control-channel loss x delay sweep (throughput retained)",
		TPM:   TPMCongestion,
		Params: []Param{
			{Name: "requests", Default: "1200", Help: "write-request count (reads get 2x)"},
			{Name: "seed", Default: "7", Help: "workload seed"},
			{Name: "losses", Default: "0,0.5,0.99", Help: "comma-separated message-loss probabilities"},
			{Name: "delays", Default: "1,32", Help: "comma-separated base-delay multipliers"},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			requests, err := p.Int("requests")
			if err != nil {
				return nil, err
			}
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			losses, err := parseFloats("losses", p["losses"])
			if err != nil {
				return nil, err
			}
			delays, err := parseFloats("delays", p["delays"])
			if err != nil {
				return nil, err
			}
			tpm, err := env.tpm(TPMCongestion)
			if err != nil {
				return nil, err
			}
			res, err := CtrlDegradation(tpm, requests, seed, losses, delays, env.Mods...)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintCtrlDegradation(w, res) }), Data: res}, nil
		},
	})

	register(&Experiment{
		Name:  "ctrl-failover",
		Title: "controller crash + standby takeover (epoch arc, time-to-reconverge)",
		TPM:   TPMCongestion,
		Params: []Param{
			{Name: "requests", Default: "600", Help: "write-request count (reads get 2x)"},
			{Name: "seed", Default: "7", Help: "workload seed"},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			requests, err := p.Int("requests")
			if err != nil {
				return nil, err
			}
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			tpm, err := env.tpm(TPMCongestion)
			if err != nil {
				return nil, err
			}
			res, err := CtrlFailover(tpm, requests, seed, env.Mods...)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintCtrlFailover(w, res) }), Data: res}, nil
		},
	})

	register(&Experiment{
		Name:  "cc-matrix",
		Title: "CC scheme x SRC on/off matrix on the Fig. 7 workload (throughput retention)",
		TPM:   TPMCongestion,
		Params: []Param{
			{Name: "requests", Default: "1200", Help: "write-request count (reads get 2x)"},
			{Name: "seed", Default: "7", Help: "workload seed"},
			{Name: "schemes", Default: "dcqcn,timely,aimd,hpcc,pfc",
				Help: "comma-separated CC schemes to sweep (see -list-cc)"},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			requests, err := p.Int("requests")
			if err != nil {
				return nil, err
			}
			seed, err := p.Uint64("seed")
			if err != nil {
				return nil, err
			}
			tpm, err := env.tpm(TPMCongestion)
			if err != nil {
				return nil, err
			}
			res, err := CCMatrix(tpm, requests, seed, strings.Split(p["schemes"], ","), env.Mods...)
			if err != nil {
				return nil, err
			}
			return &Output{Text: render(func(w io.Writer) { FprintCCMatrix(w, res) }), Data: res}, nil
		},
	})

	register(&Experiment{
		Name:  "replay",
		Title: "replay a trace file under both modes on the Sec. IV-D testbed",
		TPM:   TPMCongestion,
		Params: []Param{
			{Name: "file", Default: "", Help: "trace file path (required)"},
			{Name: "format", Default: "csv", Help: "trace format: csv (tracegen) | msr (MSR Cambridge / SNIA) | jsonl (open trace format)"},
			{Name: "cc", Default: "dcqcn", Help: ccParamHelp()},
		},
		Run: func(env *Env, p Params) (*Output, error) {
			if p["file"] == "" {
				return nil, fmt.Errorf("harness: replay needs a file parameter")
			}
			cc, err := ParseCC(p["cc"])
			if err != nil {
				return nil, err
			}
			tr, err := trace.ReadFile(p["file"], p["format"])
			if err != nil {
				return nil, err
			}
			tpm, err := env.tpm(TPMCongestion)
			if err != nil {
				return nil, err
			}
			spec := CongestionSpec()
			spec.Net.CC = cc
			base, src, err := cluster.CompareModes(spec, tpm, tr, nil, env.Mods...)
			if err != nil {
				return nil, err
			}
			res := &CongestionResult{Baseline: base, SRC: src}
			return &Output{
				Text: render(func(w io.Writer) { FprintReplay(w, base, src) }),
				Data: digests(res),
			}, nil
		},
	})
}

// FprintReplay renders the paired replay summary, one line per mode
// (the srcsim -replay text output).
func FprintReplay(w io.Writer, rs ...*cluster.Result) {
	for _, r := range rs {
		fmt.Fprintf(w, "%-11s read %5.2f Gbps | write %5.2f Gbps | aggregated %5.2f Gbps | p50/p99 read lat %.2f/%.2f ms | pauses %d\n",
			r.Mode, r.MeanReadGbps, r.MeanWriteGbps, r.AggregatedGbps,
			r.ReadLatencyP50Ms, r.ReadLatencyP99Ms, r.TotalCNPs)
		if r.Truncated {
			fmt.Fprintf(w, "%-11s (truncated: %s)\n", "", r.TruncateReason)
		}
	}
}

// FprintChaos renders the chaos soak's recovery ledger and steady-state
// aggregates.
func FprintChaos(w io.Writer, r *cluster.Result) {
	fmt.Fprintln(w, "Chaos soak: fault schedule on the congestion testbed")
	fmt.Fprintf(w, "%-11s read %5.2f Gbps | write %5.2f Gbps | aggregated %5.2f Gbps\n",
		r.Mode, r.MeanReadGbps, r.MeanWriteGbps, r.AggregatedGbps)
	fmt.Fprintf(w, "accounting: completed %d + failed %d of %d submitted\n",
		r.Completed, r.Failed, r.Submitted)
	fmt.Fprintf(w, "faults: injected %d | drops %d | corrupt %d | link-downs %d | forced pauses %d\n",
		r.FaultsInjected, r.DroppedPackets, r.CorruptedPackets, r.LinkDowns, r.ForcedPauses)
	fmt.Fprintf(w, "recovery: retries %d | timeouts %d | stale %d | dups dropped %d | watchdog trips %d\n",
		r.Retries, r.Timeouts, r.StaleResponses, r.DupsDropped, r.WatchdogTrips)
}
