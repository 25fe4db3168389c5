// Package faults is the deterministic fault-injection subsystem: a
// seeded, sim-time-stamped Schedule of fabric and device failures that
// an Injector replays into a running cluster, plus the Recovery knobs
// that arm the corresponding recovery machinery (NVMe-oF timeouts and
// retries, the PFC storm watchdog, SRC's stale-telemetry fallback).
//
// Schedules compose in code or load from JSON (the srcsim -faults
// flag). Everything is driven off the simulation clock and the
// network's seeded chaos RNG, so a given (schedule, seed, workload)
// triple reproduces bit-for-bit — chaos runs are debuggable, not merely
// repeatable in distribution.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"srcsim/internal/sim"
)

// Kind names one fault type. String values (not iota) so schedules are
// readable as JSON.
type Kind string

// Fault kinds.
const (
	// LinkDown fails the host link of Where at At; with Duration set it
	// comes back automatically, otherwise it stays down (use LinkUp).
	LinkDown Kind = "link-down"
	// LinkUp restores a previously failed link.
	LinkUp Kind = "link-up"
	// LinkFlap expands to Count down/up pairs: down at At + i*Period,
	// each staying down for Duration.
	LinkFlap Kind = "link-flap"
	// Drop sets a per-packet drop probability on both directions of the
	// host link (breaking losslessness); Duration bounds it.
	Drop Kind = "drop"
	// Corrupt sets a per-packet corruption probability on both
	// directions of the host link; corrupted frames are discarded at the
	// next hop's FCS check. Duration bounds it.
	Corrupt Kind = "corrupt"
	// SSDSlow multiplies die-operation latencies of the target's devices
	// by Factor (a slow-die / thermal-throttle spike); Duration bounds it.
	SSDSlow Kind = "ssd-slow"
	// TargetStall freezes command fetching on the target's devices for
	// Duration (firmware hiccup); in-flight operations drain normally.
	TargetStall Kind = "target-stall"
	// TelemetryStall cuts the SRC monitor's command feed at the target
	// for Duration, exercising the controller's stale-telemetry
	// fallback. I/O itself keeps flowing.
	TelemetryStall Kind = "telemetry-stall"
	// PFCStorm force-pauses the host's egress port for Duration,
	// repeating Count times every Period when Count > 1 — the pause
	// storm the PFC watchdog exists to break.
	PFCStorm Kind = "pfc-storm"
	// CtrlDrop adds a per-message drop probability on the target's
	// in-band control channel (telemetry, directives, acks, and
	// heartbeats alike); Duration bounds it. Requires the control plane.
	CtrlDrop Kind = "ctrl-drop"
	// CtrlDelay multiplies the control channel's base delay for the
	// target by Factor; Duration bounds it.
	CtrlDelay Kind = "ctrl-delay"
	// CtrlPartition cuts the target's control channel in both
	// directions for Duration (messages already in flight still land).
	CtrlPartition Kind = "ctrl-partition"
	// ControllerCrash kills the SRC controller process (Where is
	// "controller:0" — one controller domain per cluster). With
	// Duration set the primary restarts; if a standby took over
	// meanwhile, the restarted primary comes back fenced.
	ControllerCrash Kind = "controller-crash"
)

// Event is one scheduled fault. Times and durations are nanoseconds of
// simulated time, matching sim.Time.
type Event struct {
	At   sim.Time `json:"at_ns"`
	Kind Kind     `json:"kind"`
	// Where selects the victim: "initiator:N" or "target:N" (index into
	// the cluster's host lists). Device- and telemetry-level kinds
	// require a target.
	Where string `json:"where"`
	// Duration bounds the fault; zero means it persists (where the kind
	// allows that).
	Duration sim.Time `json:"duration_ns,omitempty"`
	// Period spaces the repetitions of link-flap and pfc-storm.
	Period sim.Time `json:"period_ns,omitempty"`
	// Count is the repetition count of link-flap and pfc-storm
	// (default 1).
	Count int `json:"count,omitempty"`
	// Probability is the per-packet loss probability of drop/corrupt.
	Probability float64 `json:"probability,omitempty"`
	// Factor is the latency multiplier of ssd-slow.
	Factor float64 `json:"factor,omitempty"`
}

// Recovery bundles the recovery knobs a schedule wants armed. Cluster
// construction copies set fields into the corresponding Spec settings
// unless the Spec already configures them explicitly.
type Recovery struct {
	// PFCWatchdog bounds how long a port may stay PFC-paused
	// (netsim.Config.PFCWatchdog).
	PFCWatchdog sim.Time `json:"pfc_watchdog_ns,omitempty"`
	// Timeout/MaxRetries/BackoffBase/BackoffCap form the initiators'
	// nvmeof.RetryPolicy; Timeout also arms the targets' TXQ
	// credit-leak timer.
	Timeout     sim.Time `json:"timeout_ns,omitempty"`
	MaxRetries  int      `json:"max_retries,omitempty"`
	BackoffBase sim.Time `json:"backoff_base_ns,omitempty"`
	BackoffCap  sim.Time `json:"backoff_cap_ns,omitempty"`
	// StaleAfter arms SRC's stale-telemetry watchdog; FallbackWeight is
	// the weight its Static rung and the control-plane lease agents fall
	// back to (core.ControllerConfig). Each fills its Spec setting on
	// its own.
	StaleAfter     sim.Time `json:"stale_after_ns,omitempty"`
	FallbackWeight int      `json:"fallback_weight,omitempty"`
}

// Schedule is a full fault plan: the chaos seed, the recovery knobs,
// and the event list. The zero value (and an empty JSON object) is a
// valid empty schedule that injects nothing and changes nothing.
type Schedule struct {
	// Seed reseeds the network's chaos RNG (drop/corrupt draws);
	// zero keeps the network's own seed.
	Seed     uint64    `json:"seed,omitempty"`
	Recovery *Recovery `json:"recovery,omitempty"`
	Events   []Event   `json:"events,omitempty"`
}

// LoadJSON reads a schedule from JSON, rejecting unknown fields (a
// typo'd knob in a chaos plan must fail loudly, not silently no-op).
func LoadJSON(r io.Reader) (*Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a schedule from a JSON file.
func LoadFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	defer f.Close()
	s, err := LoadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return s, nil
}

// hostRole distinguishes the two Where selector namespaces.
type hostRole int

const (
	roleInitiator hostRole = iota
	roleTarget
	roleController
)

// parseWhere splits "initiator:N" / "target:N" / "controller:N".
func parseWhere(where string) (hostRole, int, error) {
	role, idxStr, ok := strings.Cut(where, ":")
	if !ok {
		return 0, 0, fmt.Errorf("faults: where %q: want \"initiator:N\", \"target:N\", or \"controller:N\"", where)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return 0, 0, fmt.Errorf("faults: where %q: bad index %q", where, idxStr)
	}
	switch role {
	case "initiator":
		return roleInitiator, idx, nil
	case "target":
		return roleTarget, idx, nil
	case "controller":
		return roleController, idx, nil
	default:
		return 0, 0, fmt.Errorf("faults: where %q: unknown role %q", where, role)
	}
}

// Validate checks the schedule's internal consistency (selector syntax,
// parameter ranges). Selector indexes are range-checked later by
// Install, which knows the cluster size.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		tag := fmt.Sprintf("faults: event %d (%s)", i, ev.Kind)
		if ev.At < 0 {
			return fmt.Errorf("%s: negative at_ns %d", tag, ev.At)
		}
		if ev.Duration < 0 || ev.Period < 0 {
			return fmt.Errorf("%s: negative duration/period", tag)
		}
		role, idx, err := parseWhere(ev.Where)
		if err != nil {
			return fmt.Errorf("%s: %w", tag, err)
		}
		// The controller selector namespace belongs to exactly one kind.
		if (role == roleController) != (ev.Kind == ControllerCrash) {
			if role == roleController {
				return fmt.Errorf("%s: %q: only controller-crash targets the controller", tag, ev.Where)
			}
			return fmt.Errorf("%s: %q must name the controller (\"controller:0\")", tag, ev.Where)
		}
		switch ev.Kind {
		case LinkDown, LinkUp:
			// No extra parameters.
		case LinkFlap:
			if ev.Count < 1 {
				return fmt.Errorf("%s: count %d, want >= 1", tag, ev.Count)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("%s: needs a positive duration_ns (down time)", tag)
			}
			if ev.Count > 1 && ev.Period <= ev.Duration {
				return fmt.Errorf("%s: period %v must exceed down time %v", tag, ev.Period, ev.Duration)
			}
		case Drop, Corrupt:
			if ev.Probability <= 0 || ev.Probability > 1 {
				return fmt.Errorf("%s: probability %g outside (0,1]", tag, ev.Probability)
			}
		case SSDSlow:
			if ev.Factor < 1 {
				return fmt.Errorf("%s: factor %g, want >= 1", tag, ev.Factor)
			}
			if role != roleTarget {
				return fmt.Errorf("%s: %q must name a target", tag, ev.Where)
			}
		case TargetStall, TelemetryStall:
			if ev.Duration <= 0 {
				return fmt.Errorf("%s: needs a positive duration_ns", tag)
			}
			if role != roleTarget {
				return fmt.Errorf("%s: %q must name a target", tag, ev.Where)
			}
		case PFCStorm:
			if ev.Duration <= 0 {
				return fmt.Errorf("%s: needs a positive duration_ns (pause time)", tag)
			}
			if ev.Count > 1 && ev.Period <= 0 {
				return fmt.Errorf("%s: repetition needs a positive period_ns", tag)
			}
		case CtrlDrop:
			if ev.Probability <= 0 || ev.Probability > 1 {
				return fmt.Errorf("%s: probability %g outside (0,1]", tag, ev.Probability)
			}
			if role != roleTarget {
				return fmt.Errorf("%s: %q must name a target", tag, ev.Where)
			}
		case CtrlDelay:
			if ev.Factor < 1 {
				return fmt.Errorf("%s: factor %g, want >= 1", tag, ev.Factor)
			}
			if role != roleTarget {
				return fmt.Errorf("%s: %q must name a target", tag, ev.Where)
			}
		case CtrlPartition:
			if ev.Duration <= 0 {
				return fmt.Errorf("%s: needs a positive duration_ns", tag)
			}
			if role != roleTarget {
				return fmt.Errorf("%s: %q must name a target", tag, ev.Where)
			}
		case ControllerCrash:
			if idx != 0 {
				return fmt.Errorf("%s: %q: one controller domain per cluster, want \"controller:0\"", tag, ev.Where)
			}
		default:
			return fmt.Errorf("%s: unknown kind", tag)
		}
	}
	return s.validateOverlaps()
}

// windowedKinds are the fault kinds whose active windows on one
// selector must not overlap: two simultaneous ssd-slow windows on the
// same device (or two drop probabilities on one link) would silently
// shadow each other — the second expiry restores the pre-fault state
// while the first window is notionally still active.
var windowedKinds = map[Kind]bool{
	Drop: true, Corrupt: true, SSDSlow: true, TargetStall: true, TelemetryStall: true,
	CtrlDrop: true, CtrlDelay: true, CtrlPartition: true, ControllerCrash: true,
}

// validateOverlaps rejects overlapping contradictory windows of the
// same kind on the same selector, naming both offending event indexes.
func (s *Schedule) validateOverlaps() error {
	type win struct {
		idx int
		at  sim.Time
		dur sim.Time // 0 = persists forever
	}
	groups := make(map[string][]win)
	for i, ev := range s.Events {
		if !windowedKinds[ev.Kind] {
			continue
		}
		key := string(ev.Kind) + "\x00" + ev.Where
		groups[key] = append(groups[key], win{idx: i, at: ev.At, dur: ev.Duration})
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ws := groups[k]
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].at < ws[j].at })
		for i := 1; i < len(ws); i++ {
			prev, cur := ws[i-1], ws[i]
			if prev.dur == 0 || cur.at < prev.at+prev.dur {
				kind, where, _ := strings.Cut(k, "\x00")
				return fmt.Errorf(
					"faults: event %d (%s on %s at %d ns) overlaps event %d (active %d..%s ns): windows of one kind on one selector must not overlap",
					cur.idx, kind, where, cur.at, prev.idx, prev.at, windowEnd(prev.at, prev.dur))
			}
		}
	}
	return nil
}

// windowEnd renders a window's end for error messages ("forever" for
// persistent faults).
func windowEnd(at, dur sim.Time) string {
	if dur == 0 {
		return "forever"
	}
	return strconv.FormatInt(int64(at+dur), 10)
}

// Repeat expands one windowed fault into count copies spaced period
// apart, scaling Factor by factorStep each step (for ssd-slow aging
// staircases; pass 1 or 0 to keep Factor constant). The period must
// exceed the event's duration or the expansion would violate the
// overlap rule Validate enforces.
func Repeat(ev Event, count int, period sim.Time, factorStep float64) []Event {
	if count < 1 {
		count = 1
	}
	out := make([]Event, 0, count)
	f := ev.Factor
	for i := 0; i < count; i++ {
		e := ev
		e.At = ev.At + sim.Time(i)*period
		e.Factor = f
		out = append(out, e)
		if factorStep > 0 {
			f *= factorStep
		}
	}
	return out
}
