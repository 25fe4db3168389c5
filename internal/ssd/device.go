package ssd

import (
	"fmt"

	"srcsim/internal/nvme"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// Device is one simulated SSD. It pulls commands from an nvme.Arbiter
// whenever a queue-depth slot is free, translates them into page-level
// flash operations, and invokes OnComplete when a command finishes.
//
// The command path mirrors MQSim's pipeline:
//
//	fetch (QD window) → address translation (CMT hit/miss) →
//	backend scheduling (die array op + channel transfer) →
//	completion (CQ entry)
//
// Writes pass through the DRAM write cache according to Config.CacheMode;
// garbage collection runs per die when free space drops below the
// watermark and steals die time from host operations.
type Device struct {
	Cfg Config

	// OnComplete, if set, is called for every finished command after
	// internal accounting. The engine clock is at the completion time.
	OnComplete func(*nvme.Command)

	// Trace, if set, records GC spans and completion-queue congestion
	// instants on the run timeline; TraceName distinguishes devices
	// (e.g. "t0/d1"). Nil-safe.
	Trace     *obs.Scope
	TraceName string

	// Gate, if set, models completion-queue backpressure: a finished
	// command is only completed when Gate.Admit accepts it; otherwise it
	// parks in a FIFO completion queue WITHOUT freeing its queue-depth
	// slot, stalling the device once the window fills — the paper's
	// Sec. II-B bottleneck, where read data stuck in the RDMA TXQ clogs
	// the shared CQ and drags write throughput down with it. Call
	// ReleaseParked when the gate may admit again.
	Gate Gate

	eng      *sim.Engine
	arb      nvme.Arbiter
	channels []*resource
	dies     []*die
	cmt      *lruCache
	wcache   *slotPool

	outstanding int
	xferTime    sim.Time
	parked      []*nvme.Command
	parkedHead  int

	// Free lists for the per-command and per-page pipeline state (see
	// pageOp); poolOn is sim.PoolingEnabled() captured at construction.
	csFree []*cmdState
	opFree []*pageOp
	poolOn bool

	// slowFactor scales die-operation latencies (fault injection); see
	// SetSlowFactor. Zero or one means nominal speed.
	slowFactor float64
	// halted freezes command fetching (a target stall); see SetHalted.
	halted bool

	// Metrics.
	CompletedReads  uint64
	CompletedWrites uint64
	ReadBytes       int64
	WriteBytes      int64
	FetchedCommands uint64
	PeakParked      int
}

// New builds a Device on the given engine, fed by arb.
func New(eng *sim.Engine, cfg Config, arb nvme.Arbiter) (*Device, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		Cfg:      cfg,
		eng:      eng,
		arb:      arb,
		cmt:      newLRUCache(int(cfg.CMTBytes / mapEntryBytes)),
		wcache:   newSlotPool(int(cfg.WriteCacheBytes / int64(cfg.PageSize))),
		xferTime: sim.Time(float64(cfg.PageSize) / cfg.ChannelBandwidth * float64(sim.Second)),
		poolOn:   sim.PoolingEnabled(),
	}
	for c := 0; c < cfg.Channels; c++ {
		ch := newResource(eng)
		d.channels = append(d.channels, ch)
		for k := 0; k < cfg.DiesPerChannel; k++ {
			res := newResource(eng)
			idx := len(d.dies)
			d.dies = append(d.dies, newDie(idx, res, ch, cfg.BlocksPerDie, cfg.PagesPerBlock, cfg.GCThreshold))
		}
	}
	return d, nil
}

// Engine returns the device's event engine.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Arbiter returns the command source.
func (d *Device) Arbiter() nvme.Arbiter { return d.arb }

// Outstanding returns fetched-but-incomplete commands.
func (d *Device) Outstanding() int { return d.outstanding }

// CMTHitRate returns the mapping-cache hit rate so far.
func (d *Device) CMTHitRate() float64 { return d.cmt.HitRate() }

// WriteAmplification returns (host programs + GC relocations) divided by
// host programs — the flash write-amplification factor. Returns 1 with
// no writes.
func (d *Device) WriteAmplification() float64 {
	var host, reloc uint64
	for _, die := range d.dies {
		host += die.HostPrograms
		reloc += die.GCRelocations
	}
	if host == 0 {
		return 1
	}
	return float64(host+reloc) / float64(host)
}

// GCStats sums garbage-collection activity across dies.
func (d *Device) GCStats() (collections, relocations, erases uint64) {
	for _, die := range d.dies {
		collections += die.GCCollections
		relocations += die.GCRelocations
		erases += die.GCErases
	}
	return collections, relocations, erases
}

// DieUtilizations returns per-die busy fractions.
func (d *Device) DieUtilizations() []float64 {
	out := make([]float64, len(d.dies))
	for i, die := range d.dies {
		out[i] = die.res.utilization()
	}
	return out
}

// Instrument registers the device's counters and watermarks with a
// metrics registry. Devices sharing labels sum (a flash array reports as
// one series set); gauges keep watermarks across them. Nil reg is a
// no-op.
func (d *Device) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	for name, v := range map[string]*uint64{
		"completed_reads":  &d.CompletedReads,
		"completed_writes": &d.CompletedWrites,
		"fetched_commands": &d.FetchedCommands,
		"cmt_hits":         &d.cmt.Hits,
		"cmt_misses":       &d.cmt.Misses,
	} {
		reg.CounterFunc("ssd", name, obs.U64(v), labels...)
	}
	reg.CounterFunc("ssd", "read_bytes", func() float64 { return float64(d.ReadBytes) }, labels...)
	reg.CounterFunc("ssd", "write_bytes", func() float64 { return float64(d.WriteBytes) }, labels...)
	reg.CounterFunc("ssd", "gc_collections", func() float64 { c, _, _ := d.GCStats(); return float64(c) }, labels...)
	reg.CounterFunc("ssd", "gc_relocations", func() float64 { _, r, _ := d.GCStats(); return float64(r) }, labels...)
	reg.CounterFunc("ssd", "gc_erases", func() float64 { _, _, e := d.GCStats(); return float64(e) }, labels...)
	reg.GaugeFunc("ssd", "write_amplification", obs.Max, d.WriteAmplification, labels...)
	reg.GaugeFunc("ssd", "cq_parked_peak", obs.Max, func() float64 { return float64(d.PeakParked) }, labels...)
	reg.GaugeFunc("ssd", "write_cache_peak_slots", obs.Max, func() float64 { return float64(d.wcache.PeakUsed) }, labels...)
}

// Precondition simulates MQSim-style preconditioning for a workload that
// accesses the first span bytes of the logical space: the mapping
// entries of that footprint are installed in the CMT (up to its
// capacity), so steady-state runs do not pay cold mapping-read misses.
// Call before submitting traffic.
func (d *Device) Precondition(span uint64) {
	pages := span / uint64(d.Cfg.PageSize)
	limit := uint64(d.cmt.capacity)
	if pages > limit {
		pages = limit
	}
	for lpn := uint64(0); lpn < pages; lpn++ {
		d.cmt.Access(lpn)
	}
	// Preconditioning accesses are setup, not workload.
	d.cmt.Hits, d.cmt.Misses = 0, 0
}

// SetSlowFactor scales the device's die-operation latencies (read,
// program, erase) by f — the fault model's slow-die spike (retention
// retries, thermal throttling). Bus transfers are unaffected. f of 0 or
// 1 restores nominal speed; negative f panics. Operations already in
// flight keep the latency they were issued with.
func (d *Device) SetSlowFactor(f float64) {
	if f < 0 {
		panic(fmt.Sprintf("ssd: negative slow factor %g", f))
	}
	d.slowFactor = f
}

// lat applies the slow-die factor to a die-operation latency.
func (d *Device) lat(base sim.Time) sim.Time {
	if d.slowFactor > 0 && d.slowFactor != 1 {
		return sim.Time(float64(base) * d.slowFactor)
	}
	return base
}

// SetHalted freezes (true) or thaws (false) command fetching — the
// fault model's target stall. In-flight operations drain normally;
// thawing re-kicks the fetch loop.
func (d *Device) SetHalted(h bool) {
	if d.halted == h {
		return
	}
	d.halted = h
	if !h {
		d.Kick()
	}
}

// Kick pulls commands from the arbiter while queue-depth slots are free.
// Call after submitting new commands; completions re-kick automatically.
func (d *Device) Kick() {
	if d.halted {
		return
	}
	for d.outstanding < d.Cfg.QueueDepth {
		c := d.arb.Fetch()
		if c == nil {
			return
		}
		d.outstanding++
		d.FetchedCommands++
		d.process(c)
	}
}

func (d *Device) dieOf(lpn uint64) *die { return d.dies[lpn%uint64(len(d.dies))] }

// pageSpan returns the logical page numbers a command touches.
func (d *Device) pageSpan(c *nvme.Command) (first, last uint64) {
	ps := uint64(d.Cfg.PageSize)
	first = c.LBA / ps
	end := c.LBA + uint64(c.Size)
	if end == c.LBA {
		end = c.LBA + 1
	}
	last = (end - 1) / ps
	return first, last
}

// cmdState is one in-flight command's pipeline join: each page operation
// calls done() once, and the last one completes the command. Pooled.
type cmdState struct {
	d         *Device
	c         *nvme.Command
	remaining int
}

// done retires one page of the command.
func (cs *cmdState) done() {
	cs.remaining--
	if cs.remaining == 0 {
		d, c := cs.d, cs.c
		d.freeCS(cs)
		d.complete(c)
	}
}

// cmdPageDone is the arg-event trampoline for the write-back DRAM ack.
func cmdPageDone(x any) { x.(*cmdState).done() }

// pageOp is the per-page flash state machine: one pooled object carries a
// page through address translation, bus transfers, array operations, and
// the write cache, replacing what used to be a chain of per-step closure
// allocations on the hot path.
type pageOp struct {
	d   *Device
	cs  *cmdState
	die *die
	lpn uint64
	st  int8
	fin int8
}

// pageOp states: each names the pipeline stage that just finished; step()
// performs the next one.
const (
	stReadMapXfer int8 = iota // mapping array read done: bus-transfer the mapping page
	stReadData                // mapping page transferred: start the data array read
	stReadXfer                // data array read done: bus-transfer the data
	stReadDone                // data transferred: page finished
	stWriteSlot               // write-cache slot granted: ack (write-back) and destage
	stDestageXfer             // mapping array read done: bus-transfer the mapping page
	stProgXfer                // mapping ready: bus-transfer the page data to the die
	stProgAttempt             // data at the die: allocate a physical page and program
	stProgDone                // program done: GC check, then finish
)

// pageOp finish actions (write path).
const (
	finNone        int8 = iota
	finRelease          // write-back: release the cache slot (ack already sent)
	finReleaseDone      // write-through: release the slot, then retire the page
)

// pageStep is the shared arg-event trampoline for every pageOp stage.
func pageStep(x any) { x.(*pageOp).step() }

func (op *pageOp) step() {
	d := op.d
	switch op.st {
	case stReadMapXfer:
		op.st = stReadData
		op.die.channel.acquireArg(d.xferTime, pageStep, op)
	case stReadData:
		op.st = stReadXfer
		op.die.res.acquireArg(d.lat(d.Cfg.ReadLatency), pageStep, op)
	case stReadXfer:
		op.st = stReadDone
		op.die.channel.acquireArg(d.xferTime, pageStep, op)
	case stReadDone:
		cs := op.cs
		d.freeOp(op)
		cs.done()
	case stWriteSlot:
		if d.Cfg.CacheMode == WriteBack {
			// Ack once the page is in DRAM; destage in the background.
			d.eng.AfterArg(d.Cfg.DRAMLatency, cmdPageDone, op.cs)
			op.cs = nil
			op.fin = finRelease
		} else { // WriteThrough
			op.fin = finReleaseDone
		}
		if d.cmt.Access(op.lpn) {
			op.st = stProgAttempt
			op.die.channel.acquireArg(d.xferTime, pageStep, op)
		} else {
			op.st = stDestageXfer
			op.die.res.acquireArg(d.lat(d.Cfg.ReadLatency), pageStep, op)
		}
	case stDestageXfer:
		op.st = stProgXfer
		op.die.channel.acquireArg(d.xferTime, pageStep, op)
	case stProgXfer:
		op.st = stProgAttempt
		op.die.channel.acquireArg(d.xferTime, pageStep, op)
	case stProgAttempt:
		die := op.die
		if !die.allocate(op.lpn) {
			// Out of space: wait for GC to free a block.
			die.writeWaiters = append(die.writeWaiters, op)
			d.maybeGC(die)
			return
		}
		die.HostPrograms++
		op.st = stProgDone
		die.res.acquireArg(d.lat(d.Cfg.ProgramLatency), pageStep, op)
	case stProgDone:
		die, fin, cs := op.die, op.fin, op.cs
		d.freeOp(op)
		d.maybeGC(die)
		if fin != finNone {
			d.wcache.Release()
		}
		if fin == finReleaseDone {
			cs.done()
		}
	default:
		panic(fmt.Sprintf("ssd: pageOp in impossible state %d", op.st))
	}
}

func (d *Device) allocCS() *cmdState {
	if n := len(d.csFree); n > 0 {
		cs := d.csFree[n-1]
		d.csFree[n-1] = nil
		d.csFree = d.csFree[:n-1]
		return cs
	}
	return &cmdState{d: d}
}

func (d *Device) freeCS(cs *cmdState) {
	cs.c = nil
	cs.remaining = 0
	if d.poolOn {
		d.csFree = append(d.csFree, cs)
	}
}

func (d *Device) allocOp() *pageOp {
	if n := len(d.opFree); n > 0 {
		op := d.opFree[n-1]
		d.opFree[n-1] = nil
		d.opFree = d.opFree[:n-1]
		return op
	}
	return &pageOp{d: d}
}

func (d *Device) freeOp(op *pageOp) {
	op.cs, op.die, op.lpn, op.st, op.fin = nil, nil, 0, 0, finNone
	if d.poolOn {
		d.opFree = append(d.opFree, op)
	}
}

func (d *Device) process(c *nvme.Command) {
	if c.Size <= 0 {
		panic(fmt.Sprintf("ssd: command %d with size %d", c.ID, c.Size))
	}
	first, last := d.pageSpan(c)
	cs := d.allocCS()
	cs.c = c
	cs.remaining = int(last-first) + 1
	for lpn := first; lpn <= last; lpn++ {
		if c.Op == trace.Read {
			d.readPage(lpn, cs)
		} else {
			d.writePage(lpn, cs)
		}
	}
}

// Gate admits or defers command completions (see Device.Gate).
type Gate interface {
	Admit(*nvme.Command) bool
}

func (d *Device) complete(c *nvme.Command) {
	if d.Gate != nil && (d.Parked() > 0 || !d.Gate.Admit(c)) {
		// FIFO completion queue: nothing may overtake a parked entry.
		d.parked = append(d.parked, c)
		if d.Parked() > d.PeakParked {
			d.PeakParked = d.Parked()
			// Only new high-water marks are traced, bounding event volume
			// while still pinpointing when CQ congestion deepened.
			if d.Trace.Enabled() {
				d.Trace.Instant(d.eng.Now(), "ssd", "cq_park "+d.TraceName,
					obs.Num("parked", float64(d.Parked())))
			}
		}
		return
	}
	d.finish(c)
}

func (d *Device) finish(c *nvme.Command) {
	d.outstanding--
	if c.Op == trace.Read {
		d.CompletedReads++
		d.ReadBytes += int64(c.Size)
	} else {
		d.CompletedWrites++
		d.WriteBytes += int64(c.Size)
	}
	if d.OnComplete != nil {
		d.OnComplete(c)
	}
	d.Kick()
}

// Parked returns the number of finished-but-unadmitted completions.
func (d *Device) Parked() int { return len(d.parked) - d.parkedHead }

// ReleaseParked re-offers parked completions to the gate in FIFO order,
// stopping at the first one it still refuses.
func (d *Device) ReleaseParked() {
	for d.Parked() > 0 {
		head := d.parked[d.parkedHead]
		if d.Gate != nil && !d.Gate.Admit(head) {
			return
		}
		d.parked[d.parkedHead] = nil
		d.parkedHead++
		if d.parkedHead > 64 && d.parkedHead*2 >= len(d.parked) {
			d.parked = append(d.parked[:0], d.parked[d.parkedHead:]...)
			d.parkedHead = 0
		}
		d.finish(head)
	}
}

// readPage performs address translation then the array read and bus
// transfer. Reads of never-written pages behave like preconditioned
// reads (the usual MQSim setup): full array latency, no mapping change.
func (d *Device) readPage(lpn uint64, cs *cmdState) {
	op := d.allocOp()
	op.cs, op.die, op.lpn = cs, d.dieOf(lpn), lpn
	if d.cmt.Access(lpn) {
		op.st = stReadXfer
	} else {
		// CMT miss: read the mapping page from flash first.
		op.st = stReadMapXfer
	}
	op.die.res.acquireArg(d.lat(d.Cfg.ReadLatency), pageStep, op)
}

// writePage routes one page write through the write cache; the pipeline
// continues in pageOp.step from stWriteSlot once a slot is granted.
func (d *Device) writePage(lpn uint64, cs *cmdState) {
	op := d.allocOp()
	op.cs, op.die, op.lpn = cs, d.dieOf(lpn), lpn
	op.st = stWriteSlot
	d.wcache.Acquire(pageStep, op)
}

// maybeGC starts the per-die garbage-collection loop when the free-space
// watermark is crossed.
func (d *Device) maybeGC(die *die) {
	if die.gcRunning || !die.gcNeeded() {
		return
	}
	die.gcRunning = true
	d.gcStep(die)
}

func (d *Device) gcStep(die *die) {
	victim := die.pickVictim()
	if victim < 0 {
		die.gcRunning = false
		if len(die.writeWaiters) > 0 && len(die.freeBlocks) == 0 && die.blocks[die.active].full(die.pagesPerBlock) {
			// Every block is fully valid yet writes are stalled: the
			// logical space overcommits the physical space.
			panic(fmt.Sprintf("ssd: die %d wedged: writes waiting but no reclaimable space", die.index))
		}
		die.drainWaiters()
		return
	}
	die.GCCollections++
	gcStart := d.eng.Now()
	var relocated int
	live := die.liveLPNs(victim)
	var relocate func(i int)
	relocate = func(i int) {
		// Skip entries invalidated by host writes since the snapshot.
		for i < len(live) && !die.stillIn(live[i], victim) {
			i++
		}
		if i >= len(live) {
			// All live data moved: erase and recycle.
			die.res.acquire(d.lat(d.Cfg.EraseLatency), func() {
				die.finishErase(victim)
				if d.Trace.Enabled() {
					d.Trace.Span("ssd", "gc "+d.TraceName, gcStart, d.eng.Now(),
						obs.Num("die", float64(die.index)),
						obs.Num("relocations", float64(relocated)))
				}
				die.drainWaiters()
				if die.gcNeeded() {
					d.gcStep(die)
				} else {
					die.gcRunning = false
				}
			})
			return
		}
		lpn := live[i]
		if !die.allocate(lpn) {
			panic(fmt.Sprintf("ssd: die %d has no space for GC relocation", die.index))
		}
		die.GCRelocations++
		relocated++
		// Copy-back: array read + program on the same die, no bus.
		die.res.acquire(d.lat(d.Cfg.ReadLatency+d.Cfg.ProgramLatency), func() {
			relocate(i + 1)
		})
	}
	relocate(0)
}
