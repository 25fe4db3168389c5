package cluster

import (
	"fmt"
	"time"

	"srcsim/internal/guard"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// AuditInvariants verifies the cluster-level ledger: completions and
// failures never outrun submissions — checked continuously during the
// run, not just at the end.
func (c *Cluster) AuditInvariants() []guard.Violation {
	var vs []guard.Violation
	if c.completed+c.failed > c.total && c.total > 0 {
		vs = append(vs, guard.Violationf("cluster", "ledger-overrun",
			"completed %d + failed %d > submitted %d", c.completed, c.failed, c.total))
	}
	if c.completed < 0 || c.failed < 0 {
		vs = append(vs, guard.Violationf("cluster", "ledger-nonnegative",
			"completed %d failed %d", c.completed, c.failed))
	}
	return vs
}

// auditAll runs every layer's invariant check, tagging violations with
// the owning instance. Strictly read-only.
func (c *Cluster) auditAll() []guard.Violation {
	vs := c.AuditInvariants()
	vs = append(vs, c.Net.AuditInvariants()...)
	if c.plane != nil {
		if pvs := c.plane.AuditInvariants(); len(pvs) > 0 {
			vs = append(vs, guard.Tag(pvs, "ctrlplane")...)
		}
	}
	// Tags are only formatted for non-empty violation lists: the guard
	// polls this on every audit tick, and the clean path must not allocate.
	for i, ini := range c.Initiators {
		if ivs := ini.AuditInvariants(); len(ivs) > 0 {
			vs = append(vs, guard.Tag(ivs, fmt.Sprintf("initiator %d", i))...)
		}
	}
	for ti, tn := range c.Targets {
		if tvs := tn.T.AuditInvariants(); len(tvs) > 0 {
			vs = append(vs, guard.Tag(tvs, fmt.Sprintf("target %d", ti))...)
		}
		for di, dev := range tn.Devs {
			if dvs := dev.AuditInvariants(); len(dvs) > 0 {
				vs = append(vs, guard.Tag(dvs, fmt.Sprintf("target %d dev %d", ti, di))...)
			}
			// Arbiters are audited through the interface so every mode's
			// scheduler that implements the check participates.
			if a, ok := dev.Arbiter().(guard.Auditable); ok {
				if avs := a.AuditInvariants(); len(avs) > 0 {
					vs = append(vs, guard.Tag(avs, fmt.Sprintf("target %d dev %d", ti, di))...)
				}
			}
		}
	}
	return vs
}

// buildDump snapshots the cluster for a watchdog trip. The census walks
// only simulation state, so dumps from deterministic runs are
// byte-identical across repeats.
func (c *Cluster) buildDump() *guard.Dump {
	now := c.Eng.Now()
	d := &guard.Dump{
		SimTime:         now,
		EventsProcessed: c.Eng.Processed,
		PendingEvents:   c.Eng.Pending(),
		Submitted:       c.total,
		Completed:       c.completed,
		Failed:          c.failed,
		InFlightTotal:   len(c.flight),
	}
	if at, ok := c.Eng.NextEventAt(); ok {
		d.NextEventAt = at
	} else {
		d.HeapEmpty = true
	}
	// Oldest-first census, capped; selection is by (age, id) so map
	// iteration order cannot leak into the dump.
	recs := make([]trace.Request, 0, len(c.flight))
	for _, r := range c.flight {
		recs = append(recs, r)
	}
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			if recs[j].Arrival < recs[i].Arrival ||
				(recs[j].Arrival == recs[i].Arrival && recs[j].ID < recs[i].ID) {
				recs[i], recs[j] = recs[j], recs[i]
			}
		}
		if i >= guard.MaxDumpCommands {
			break
		}
	}
	if len(recs) > 0 {
		d.OldestAge = now - recs[0].Arrival
	}
	lim := len(recs)
	if lim > guard.MaxDumpCommands {
		lim = guard.MaxDumpCommands
	}
	perIni := make([]int, len(c.Initiators))
	for _, r := range recs {
		perIni[r.Initiator]++
	}
	for _, r := range recs[:lim] {
		d.InFlight = append(d.InFlight, guard.CommandInfo{
			ID:          r.ID,
			Initiator:   r.Initiator,
			Target:      r.Target,
			Write:       r.Op == trace.Write,
			Bytes:       int64(r.Size),
			SubmittedAt: r.Arrival,
			Age:         now - r.Arrival,
		})
	}
	for i, ini := range c.Initiators {
		d.Initiators = append(d.Initiators, guard.InitiatorState{
			ID: i, InFlight: perIni[i], RetryPending: ini.PendingCount(),
		})
	}
	for ti, tn := range c.Targets {
		ts := guard.TargetState{
			ID:         ti,
			Inflight:   tn.T.InflightCount(),
			TXQCredit:  tn.T.TXQCredit(),
			TXQCap:     tn.T.TXQCap(),
			TXQWaiting: tn.T.ParkedCompletions(),
		}
		for di, dev := range tn.Devs {
			ts.DevOutstanding += dev.Outstanding()
			ts.DevParked += dev.Parked()
			ts.ArbPending += dev.Arbiter().Pending()
			if ssq := tn.SSQs[di]; ssq != nil {
				r, w := ssq.Tokens()
				pr, pw := ssq.PendingByOp()
				ts.SSQs = append(ts.SSQs, guard.SSQState{
					RTokens: r, WTokens: w, PendingR: pr, PendingW: pw,
				})
			}
		}
		d.Targets = append(d.Targets, ts)
	}
	d.Links = c.Net.LinkStates()
	return d
}

// installGuard arms the configured governance mechanisms around one Run
// call: the liveness watchdog and conservation auditor as sim-clock
// tickers, and cancellation/wall-budget/event-storm checks as an engine
// interrupt hook. It returns a teardown that detaches everything.
//
// All hooks are pure observers until the moment they trip: they read
// state and, on failure, record the verdict and call Eng.Stop(). An
// unarmed mechanism schedules nothing, so a run with the zero
// guard.Config is event-for-event identical to an unguarded one.
func (c *Cluster) installGuard() (teardown func()) {
	cfg := c.Spec.Guard
	if !cfg.Enabled() {
		return func() {}
	}
	var stops []func()

	if cfg.StallHorizon > 0 {
		c.flight = make(map[uint64]trace.Request)
		lastDone := -1
		stops = append(stops, c.Eng.Ticker(cfg.CheckEvery, func() {
			if c.guardErr != nil {
				return
			}
			done := c.completed + c.failed
			progressed := done != lastDone
			lastDone = done
			if progressed || len(c.flight) == 0 {
				return
			}
			oldest := sim.MaxTime
			for _, r := range c.flight {
				if r.Arrival < oldest {
					oldest = r.Arrival
				}
			}
			if c.Eng.Now()-oldest <= cfg.StallHorizon {
				return
			}
			c.guardErr = &guard.StallError{
				Axis: "sim-time", Horizon: cfg.StallHorizon, Dump: c.buildDump(),
			}
			c.Eng.Stop()
		}))
	}

	if cfg.Audit {
		stops = append(stops, c.Eng.Ticker(cfg.AuditEvery, func() {
			if c.guardErr != nil {
				return
			}
			if vs := c.auditAll(); len(vs) > 0 {
				c.guardErr = &guard.ViolationError{At: c.Eng.Now(), Violations: vs}
				c.Eng.Stop()
			}
		}))
	}

	if cfg.Stop != nil || cfg.WallBudget > 0 || cfg.StallHorizon > 0 {
		wallStart := time.Now()
		var frozenAt sim.Time = -1
		var frozenEvents uint64
		c.Eng.SetInterrupt(cfg.InterruptEvery, func() {
			if c.guardErr != nil || c.truncated {
				return
			}
			if cfg.Stop != nil && cfg.Stop.Stopped() {
				c.truncated = true
				c.truncateReason = cfg.Stop.Reason()
				c.Eng.Stop()
				return
			}
			if cfg.WallBudget > 0 && time.Since(wallStart) > cfg.WallBudget {
				c.truncated = true
				c.truncateReason = fmt.Sprintf("wall budget %v exceeded", cfg.WallBudget)
				c.Eng.Stop()
				return
			}
			if cfg.StallHorizon > 0 {
				// The event-storm axis: events keep processing while the sim
				// clock stays frozen at one instant — a zero-delay livelock
				// no sim-time ticker can ever observe.
				if now := c.Eng.Now(); now != frozenAt {
					frozenAt, frozenEvents = now, 0
					return
				}
				frozenEvents += cfg.InterruptEvery
				if frozenEvents >= cfg.MaxEventsPerInstant {
					c.guardErr = &guard.StallError{
						Axis: "event-storm", Horizon: cfg.StallHorizon, Dump: c.buildDump(),
					}
					c.Eng.Stop()
				}
			}
		})
		stops = append(stops, func() { c.Eng.SetInterrupt(0, nil) })
	}

	return func() {
		for _, s := range stops {
			s()
		}
	}
}
