package netsim

// The congestion-control registry: every transport scheme a flow can
// run is registered as an enumerable descriptor — constructor, config
// validator, and the capability bits the NIC wires from — so Config.CC
// resolves through a lookup instead of a hardcoded switch, and
// front-ends (cmd/srcsim -cc, the cc-matrix campaign, the cctest
// conformance suite) can enumerate schemes the way internal/harness
// enumerates experiments. A new scheme registers itself here and gets
// the NIC hook, SRC's rate-event plumbing, the flight-recorder probes,
// and the shared conformance suite for free.

import (
	"fmt"
	"io"
	"strings"

	"srcsim/internal/ccaimd"
	"srcsim/internal/dcqcn"
	"srcsim/internal/hpcc"
	"srcsim/internal/obs"
	"srcsim/internal/pfconly"
	"srcsim/internal/sim"
	"srcsim/internal/timely"
)

// INTObserver is the capability a RateController implements to consume
// echoed in-network-telemetry headers; the NIC attaches INT headers to
// a flow's data packets exactly when its controller implements it.
type INTObserver interface {
	// OnINTAck delivers the INT header echoed on one acknowledgement.
	OnINTAck(h *hpcc.INTHeader)
}

// ECNEchoObserver is the capability a RateController implements to
// consume per-ack ECN echo; the NIC copies the data packet's ECN mark
// onto the acknowledgement exactly when the controller implements it.
type ECNEchoObserver interface {
	// OnAckECN delivers one acknowledgement's echoed ECN mark state.
	OnAckECN(marked bool)
}

// Instrumented is the capability a RateController implements to register
// its per-flow state (target rate, congestion estimate, ...) with the
// metrics registry; the fabric calls it once per flow, with the fabric
// labels plus a flow label, when observability is on.
type Instrumented interface {
	Instrument(reg *obs.Registry, labels ...obs.Label)
}

// CCEnv is the construction context a scheme's New receives: the event
// engine and the resolved fabric config (for the scheme's own config
// block and the DCQCN.LineRate default).
type CCEnv struct {
	Eng *sim.Engine
	Cfg *Config
}

// CCScheme describes one registered congestion-control algorithm.
type CCScheme struct {
	// Alg is the enum value Config.CC selects the scheme by.
	Alg CCAlg
	// Name is the CLI/campaign identifier (e.g. "dcqcn").
	Name string
	// Title is a one-line synopsis for listings.
	Title string
	// SignalDriven reports that an explicit congestion signal cuts the
	// rate (false only for the uncontrolled baseline); the conformance
	// suite asserts a strict decrease exactly for signal-driven schemes.
	SignalDriven bool
	// WantsCNP makes the receiver NIC generate CNPs for ECN-marked
	// arrivals on this scheme's flows (the DCQCN notification point).
	WantsCNP bool
	// New builds one per-flow reaction point starting at line rate.
	New func(env CCEnv) RateController
	// Validate checks the scheme's config block within cfg (nil means
	// nothing beyond the shared fabric validation).
	Validate func(cfg *Config) error
}

// ccSchemes is the registry, in listing order.
var ccSchemes []*CCScheme

// RegisterCC adds a scheme at package init. Duplicate names or enum
// values are a wiring bug.
func RegisterCC(s *CCScheme) {
	for _, have := range ccSchemes {
		if have.Name == s.Name || have.Alg == s.Alg {
			panic("netsim: duplicate CC scheme " + s.Name)
		}
	}
	ccSchemes = append(ccSchemes, s)
}

// CCSchemes returns the registered schemes in listing order. The
// returned slice is shared; do not mutate it.
func CCSchemes() []*CCScheme { return ccSchemes }

// LookupCC finds a registered scheme by algorithm value.
func LookupCC(alg CCAlg) (*CCScheme, bool) {
	for _, s := range ccSchemes {
		if s.Alg == alg {
			return s, true
		}
	}
	return nil, false
}

// LookupCCName finds a registered scheme by name.
func LookupCCName(name string) (*CCScheme, bool) {
	for _, s := range ccSchemes {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// CCNames returns the registered scheme names in listing order.
func CCNames() []string {
	names := make([]string, len(ccSchemes))
	for i, s := range ccSchemes {
		names[i] = s.Name
	}
	return names
}

// FprintCCSchemes renders the registry: every scheme name with its
// synopsis and capability bits (the output of `srcsim -list-cc`).
func FprintCCSchemes(w io.Writer) {
	fmt.Fprintln(w, "registered congestion-control schemes:")
	for _, s := range ccSchemes {
		caps := make([]string, 0, 2)
		if s.SignalDriven {
			caps = append(caps, "signal-driven")
		}
		if s.WantsCNP {
			caps = append(caps, "cnp")
		}
		fmt.Fprintf(w, "  %-7s %s", s.Name, s.Title)
		if len(caps) > 0 {
			fmt.Fprintf(w, " [%s]", strings.Join(caps, ", "))
		}
		fmt.Fprintln(w)
	}
}

// ParseCCAlg maps a scheme name to its algorithm value.
func ParseCCAlg(name string) (CCAlg, error) {
	if s, ok := LookupCCName(name); ok {
		return s.Alg, nil
	}
	return 0, fmt.Errorf("netsim: unknown congestion control %q (registered: %s)",
		name, strings.Join(CCNames(), ", "))
}

func init() {
	RegisterCC(&CCScheme{
		Alg: CCDCQCN, Name: "dcqcn",
		Title:        "DCQCN (ECN/CNP-driven, the paper's baseline)",
		SignalDriven: true, WantsCNP: true,
		New: func(env CCEnv) RateController {
			return dcqcn.NewRP(env.Eng, env.Cfg.DCQCN)
		},
		// DCQCN's block doubles as the fabric config (CP marking, line
		// rate), so Config.Validate always checks it; nothing extra here.
	})
	RegisterCC(&CCScheme{
		Alg: CCTIMELY, Name: "timely",
		Title:        "TIMELY (RTT-gradient, per-packet acks)",
		SignalDriven: true, WantsCNP: true,
		New: func(env CCEnv) RateController {
			return timely.NewRP(env.Cfg.timelyResolved())
		},
		Validate: func(cfg *Config) error { return cfg.timelyResolved().Validate() },
	})
	RegisterCC(&CCScheme{
		Alg: CCNone, Name: "none",
		Title:        "no rate control (line-rate pacing, PFC only restrains; ablation)",
		SignalDriven: false, WantsCNP: true,
		New: func(env CCEnv) RateController {
			return &staticRC{rate: env.Cfg.DCQCN.LineRate}
		},
	})
	RegisterCC(&CCScheme{
		Alg: CCAIMD, Name: "aimd",
		Title:        "ECN-fraction AIMD (REPS-style oversubscribed CC)",
		SignalDriven: true, WantsCNP: false,
		New: func(env CCEnv) RateController {
			return ccaimd.NewRP(env.Eng, env.Cfg.aimdResolved())
		},
		Validate: func(cfg *Config) error { return cfg.aimdResolved().Validate() },
	})
	RegisterCC(&CCScheme{
		Alg: CCHPCC, Name: "hpcc",
		Title:        "HPCC (in-network telemetry, per-hop queue/txRate)",
		SignalDriven: true, WantsCNP: false,
		New: func(env CCEnv) RateController {
			return hpcc.NewRP(env.Cfg.hpccResolved())
		},
		Validate: func(cfg *Config) error { return cfg.hpccResolved().Validate() },
	})
	RegisterCC(&CCScheme{
		Alg: CCPFC, Name: "pfc",
		Title:        "PFC/RCM baseline (static cut + linear recovery)",
		SignalDriven: true, WantsCNP: true,
		New: func(env CCEnv) RateController {
			return pfconly.NewRP(env.Eng, env.Cfg.pfcResolved())
		},
		Validate: func(cfg *Config) error { return cfg.pfcResolved().Validate() },
	})
}

// The *Resolved helpers default a scheme config's unset LineRate from
// the fabric line rate (DCQCN.LineRate), so every scheme resolves —
// and validates — the line rate uniformly.

func (c *Config) timelyResolved() timely.Config {
	tc := c.TIMELY
	if tc.LineRate <= 0 {
		tc.LineRate = c.DCQCN.LineRate
	}
	return tc
}

func (c *Config) aimdResolved() ccaimd.Config {
	ac := c.AIMD
	if ac.LineRate <= 0 {
		ac.LineRate = c.DCQCN.LineRate
	}
	return ac
}

func (c *Config) hpccResolved() hpcc.Config {
	hc := c.HPCC
	if hc.LineRate <= 0 {
		hc.LineRate = c.DCQCN.LineRate
	}
	return hc
}

func (c *Config) pfcResolved() pfconly.Config {
	pc := c.PFC
	if pc.LineRate <= 0 {
		pc.LineRate = c.DCQCN.LineRate
	}
	return pc
}
