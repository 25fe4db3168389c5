package ssd

import (
	"math"
	"strings"
	"testing"

	"srcsim/internal/nvme"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// testDevice builds a device over an SSQ with the given config tweaks.
func testDevice(t testing.TB, cfg Config, arb nvme.Arbiter) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := New(eng, cfg, arb)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev
}

// driveTrace submits every request of tr at its arrival time and runs to
// completion; returns completion times by command ID.
func driveTrace(eng *sim.Engine, dev *Device, arb nvme.Arbiter, tr *trace.Trace) map[uint64]sim.Time {
	completions := make(map[uint64]sim.Time, tr.Len())
	dev.OnComplete = func(c *nvme.Command) { completions[c.ID] = eng.Now() }
	for _, r := range tr.Requests {
		r := r
		eng.Schedule(r.Arrival, func() {
			arb.Submit(&nvme.Command{ID: r.ID, Op: r.Op, LBA: r.LBA, Size: r.Size, Submitted: r.Arrival})
			dev.Kick()
		})
	}
	eng.RunUntilIdle()
	return completions
}

func TestConfigPresets(t *testing.T) {
	for _, cfg := range []Config{ConfigA(), ConfigB(), ConfigC()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	a := ConfigA()
	if a.QueueDepth != 128 || a.PageSize != 16<<10 || a.ReadLatency != 75*sim.Microsecond ||
		a.ProgramLatency != 300*sim.Microsecond || a.WriteCacheBytes != 256<<20 || a.CMTBytes != 2<<20 {
		t.Fatalf("SSD-A mismatch with Table II: %+v", a)
	}
	b := ConfigB()
	if b.QueueDepth != 512 || b.ReadLatency != 2*sim.Microsecond || b.ProgramLatency != 100*sim.Microsecond {
		t.Fatalf("SSD-B mismatch with Table II: %+v", b)
	}
	c := ConfigC()
	if c.QueueDepth != 512 || c.PageSize != 8<<10 || c.WriteCacheBytes != 512<<20 ||
		c.CMTBytes != 8<<20 || c.ReadLatency != 30*sim.Microsecond || c.ProgramLatency != 200*sim.Microsecond {
		t.Fatalf("SSD-C mismatch with Table II: %+v", c)
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := ConfigA()
	wantPhys := int64(cfg.Dies()) * 256 * 256 * int64(16<<10)
	if cfg.PhysicalBytes() != wantPhys {
		t.Fatalf("physical %d, want %d", cfg.PhysicalBytes(), wantPhys)
	}
	if cfg.LogicalBytes() >= cfg.PhysicalBytes() {
		t.Fatal("logical must be below physical")
	}
	// 2MB CMT / 8B entries * 16KB pages = 4GB coverage.
	if cfg.CMTCoverageBytes() != 4<<30 {
		t.Fatalf("CMT coverage %d", cfg.CMTCoverageBytes())
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := ConfigA()
	bad.PageSize = 1000
	if err := bad.Validate(); err == nil {
		t.Fatal("unaligned page size should fail")
	}
	bad = ConfigA()
	bad.OverProvision = 0.9
	if err := bad.Validate(); err == nil {
		t.Fatal("huge OP should fail")
	}
	// CMT and write-cache sizes the cache structures cannot hold fail with
	// the field named, instead of being coerced to one entry or slot.
	for _, tc := range []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"CMT below one entry", func(c *Config) { c.CMTBytes = mapEntryBytes - 1 }, "CMTBytes 7 below one 8-byte mapping entry"},
		{"CMT above int32 entries", func(c *Config) { c.CMTBytes = (math.MaxInt32 + 1) * mapEntryBytes }, "CMTBytes 17179869184 holds 2147483648 mapping entries"},
		{"write cache below one page", func(c *Config) { c.WriteCacheBytes = int64(c.PageSize) - 1 }, "WriteCacheBytes 16383 below one 16384-byte page"},
	} {
		bad := ConfigA()
		tc.mod(&bad)
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := New(sim.NewEngine(), bad, nvme.NewSSQ(1, 1)); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	// The smallest sizes that fit are valid.
	ok := ConfigA()
	ok.CMTBytes, ok.WriteCacheBytes = mapEntryBytes, int64(ok.PageSize)
	if err := ok.Validate(); err != nil {
		t.Fatalf("one CMT entry, one write-cache page: %v", err)
	}
}

func TestSingleReadLatency(t *testing.T) {
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, ConfigA(), arb)
	done := driveTrace(eng, dev, arb, &trace.Trace{Requests: []trace.Request{
		{ID: 1, Op: trace.Read, LBA: 0, Size: 4096, Arrival: 0},
	}})
	// Cold read: CMT miss (mapping read + transfer) then data read +
	// transfer: 2*(75us + ~19.5us) ≈ 189us.
	lat := done[1]
	if lat < 185*sim.Microsecond || lat > 195*sim.Microsecond {
		t.Fatalf("cold 4K read latency %v, want ~189us", lat)
	}
}

func TestWarmReadSkipsMappingFetch(t *testing.T) {
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, ConfigA(), arb)
	done := driveTrace(eng, dev, arb, &trace.Trace{Requests: []trace.Request{
		{ID: 1, Op: trace.Read, LBA: 0, Size: 4096, Arrival: 0},
		{ID: 2, Op: trace.Read, LBA: 0, Size: 4096, Arrival: 10 * sim.Millisecond},
	}})
	warm := done[2] - 10*sim.Millisecond
	if warm < 90*sim.Microsecond || warm > 100*sim.Microsecond {
		t.Fatalf("warm 4K read latency %v, want ~94.5us", warm)
	}
	if dev.CMTHitRate() <= 0.4 {
		t.Fatalf("hit rate %v after repeat access", dev.CMTHitRate())
	}
}

func TestWriteThroughLatencyIncludesProgram(t *testing.T) {
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, ConfigA(), arb)
	done := driveTrace(eng, dev, arb, &trace.Trace{Requests: []trace.Request{
		{ID: 1, Op: trace.Write, LBA: 0, Size: 4096, Arrival: 0},
	}})
	// Mapping miss (read+xfer) + data xfer + program ≈ 75+19.5+19.5+300.
	lat := done[1]
	if lat < 400*sim.Microsecond || lat > 425*sim.Microsecond {
		t.Fatalf("write-through 4K latency %v, want ~414us", lat)
	}
}

func TestWriteBackAcksFast(t *testing.T) {
	cfg := ConfigA()
	cfg.CacheMode = WriteBack
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, cfg, arb)
	done := driveTrace(eng, dev, arb, &trace.Trace{Requests: []trace.Request{
		{ID: 1, Op: trace.Write, LBA: 0, Size: 4096, Arrival: 0},
	}})
	if done[1] > 5*sim.Microsecond {
		t.Fatalf("write-back ack latency %v, want ~1us", done[1])
	}
	// Background destage still reaches flash.
	var progs uint64
	for _, die := range dev.dies {
		progs += die.HostPrograms
	}
	if progs != 1 {
		t.Fatalf("programs after write-back = %d, want 1", progs)
	}
}

func TestMultiPageCommandCompletesOnce(t *testing.T) {
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, ConfigA(), arb)
	// 44KB read spans 3 16K pages (LBA 0..45055).
	done := driveTrace(eng, dev, arb, &trace.Trace{Requests: []trace.Request{
		{ID: 7, Op: trace.Read, LBA: 0, Size: 44 << 10, Arrival: 0},
	}})
	if len(done) != 1 {
		t.Fatalf("%d completions for one command", len(done))
	}
	if dev.CompletedReads != 1 || dev.ReadBytes != 44<<10 {
		t.Fatalf("stats reads=%d bytes=%d", dev.CompletedReads, dev.ReadBytes)
	}
}

func TestQueueDepthWindowRespected(t *testing.T) {
	cfg := ConfigA()
	cfg.QueueDepth = 4
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, cfg, arb)
	maxOut := 0
	dev.OnComplete = func(*nvme.Command) {
		if dev.Outstanding() > maxOut {
			maxOut = dev.Outstanding()
		}
	}
	for i := uint64(0); i < 64; i++ {
		arb.Submit(&nvme.Command{ID: i, Op: trace.Read, LBA: i << 20, Size: 4096})
	}
	dev.Kick()
	if dev.Outstanding() != 4 {
		t.Fatalf("outstanding after kick = %d, want QD=4", dev.Outstanding())
	}
	eng.RunUntilIdle()
	if dev.CompletedReads != 64 {
		t.Fatalf("completed %d", dev.CompletedReads)
	}
	if maxOut > 4 {
		t.Fatalf("outstanding exceeded QD: %d", maxOut)
	}
}

// mixedBacklogThroughput saturates the device with reads and writes at
// the given SSQ ratio and returns completed (reads, writes) in a window.
func mixedBacklogThroughput(t *testing.T, w int) (reads, writes uint64) {
	t.Helper()
	arb := nvme.NewSSQ(1, w)
	eng, dev := testDevice(t, ConfigA(), arb)
	// Deep pre-loaded backlog; disjoint 1MB-spaced LBAs avoid redirects.
	for i := uint64(0); i < 3000; i++ {
		arb.Submit(&nvme.Command{ID: i, Op: trace.Read, LBA: i << 20, Size: 16 << 10})
		arb.Submit(&nvme.Command{ID: 100000 + i, Op: trace.Write, LBA: (100000 + i) << 20, Size: 16 << 10})
	}
	dev.Kick()
	eng.Run(300 * sim.Millisecond)
	return dev.CompletedReads, dev.CompletedWrites
}

func TestWRRShapesDeviceThroughput(t *testing.T) {
	// w=1: read and write completion counts should be close (the Fig. 5
	// observation at weight ratio 1).
	r1, w1 := mixedBacklogThroughput(t, 1)
	ratio1 := float64(w1) / float64(r1)
	if ratio1 < 0.85 || ratio1 > 1.15 {
		t.Fatalf("w=1: W/R completion ratio %.2f (R=%d W=%d), want ~1", ratio1, r1, w1)
	}
	// w=4: writes should complete ~4x as often as reads.
	r4, w4 := mixedBacklogThroughput(t, 4)
	ratio4 := float64(w4) / float64(r4)
	if ratio4 < 3.0 || ratio4 > 5.0 {
		t.Fatalf("w=4: W/R completion ratio %.2f (R=%d W=%d), want ~4", ratio4, r4, w4)
	}
	if r4 >= r1 {
		t.Fatalf("raising w must cut read throughput: r1=%d r4=%d", r1, r4)
	}
	if w4 <= w1 {
		t.Fatalf("raising w must boost write throughput: w1=%d w4=%d", w1, w4)
	}
}

func TestCMTThrashingLowersHitRate(t *testing.T) {
	cfg := ConfigA()
	cfg.CMTBytes = 8 * 64 // only 64 mapping entries
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, cfg, arb)
	tr, err := workload.Micro(workload.MicroConfig{
		Seed: 3, ReadCount: 2000,
		ReadInterArrival: 100 * sim.Microsecond, ReadMeanSize: 16 << 10,
		AddressSpace: 2 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveTrace(eng, dev, arb, tr)
	if hr := dev.CMTHitRate(); hr > 0.2 {
		t.Fatalf("tiny CMT hit rate %v, want thrashing", hr)
	}
}

func TestWriteCacheLimitsInflight(t *testing.T) {
	cfg := ConfigA()
	cfg.WriteCacheBytes = int64(cfg.PageSize) * 2 // 2 slots
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, cfg, arb)
	for i := uint64(0); i < 100; i++ {
		arb.Submit(&nvme.Command{ID: i, Op: trace.Write, LBA: i << 20, Size: 16 << 10})
	}
	dev.Kick()
	if dev.wcache.PeakUsed > 2 {
		t.Fatalf("cache peak %d exceeds 2 slots", dev.wcache.PeakUsed)
	}
	eng.RunUntilIdle()
	if dev.CompletedWrites != 100 {
		t.Fatalf("completed %d writes", dev.CompletedWrites)
	}
	if dev.wcache.PeakUsed > 2 {
		t.Fatalf("cache peak %d exceeds 2 slots", dev.wcache.PeakUsed)
	}
}

func TestGarbageCollectionReclaimsSpace(t *testing.T) {
	// Tiny device: 1 die, 8 blocks x 8 pages = 64 pages. Overwrite a
	// 16-page working set repeatedly to force GC.
	cfg := Config{
		Name: "tiny", QueueDepth: 4,
		Channels: 1, DiesPerChannel: 1,
		BlocksPerDie: 8, PagesPerBlock: 8,
		PageSize:    16 << 10,
		GCThreshold: 0.2,
	}
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, cfg, arb)
	tr := &trace.Trace{}
	for i := 0; i < 400; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			ID: uint64(i), Op: trace.Write,
			LBA:     uint64(i%16) * uint64(cfg.PageSize),
			Size:    cfg.PageSize,
			Arrival: sim.Time(i) * 100 * sim.Microsecond,
		})
	}
	driveTrace(eng, dev, arb, tr)
	if dev.CompletedWrites != 400 {
		t.Fatalf("completed %d writes", dev.CompletedWrites)
	}
	collections, relocations, erases := dev.GCStats()
	if collections == 0 || erases == 0 {
		t.Fatalf("GC never ran: collections=%d erases=%d", collections, erases)
	}
	_ = relocations
	die := dev.dies[0]
	if die.freePages < 0 || die.freePages > die.totalPages {
		t.Fatalf("free pages %d out of range", die.freePages)
	}
	// All 16 live LPNs must still map somewhere valid.
	if len(die.mapping) != 16 {
		t.Fatalf("mapping size %d, want 16", len(die.mapping))
	}
	for lpn, loc := range die.mapping {
		if !die.blocks[loc.block].valid[loc.page] {
			t.Fatalf("lpn %d maps to invalid page", lpn)
		}
		if die.blocks[loc.block].lpns[loc.page] != lpn {
			t.Fatalf("reverse map mismatch for lpn %d", lpn)
		}
	}
}

// TestBlockPagesAllocatedOnFirstProgram: a block's page arrays appear
// only once it is programmed, so a fresh die holds none.
func TestBlockPagesAllocatedOnFirstProgram(t *testing.T) {
	cfg := Config{
		Name: "tiny", QueueDepth: 4,
		Channels: 1, DiesPerChannel: 1,
		BlocksPerDie: 8, PagesPerBlock: 8,
		PageSize: 16 << 10,
	}
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, cfg, arb)
	allocated := func() (n int) {
		for _, b := range dev.dies[0].blocks {
			if b.lpns != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("fresh die has %d blocks with page arrays", n)
	}
	tr := &trace.Trace{}
	for i := 0; i < 12; i++ { // one full block plus four pages of the next
		tr.Requests = append(tr.Requests, trace.Request{
			ID: uint64(i), Op: trace.Write, LBA: uint64(i) * uint64(cfg.PageSize),
			Size: cfg.PageSize, Arrival: sim.Time(i) * sim.Millisecond,
		})
	}
	driveTrace(eng, dev, arb, tr)
	if n := allocated(); n != 2 {
		t.Fatalf("%d blocks with page arrays after 12 page writes, want 2", n)
	}
}

func TestGCAccountingInvariant(t *testing.T) {
	// Free pages + programmed pages must always equal total pages.
	cfg := Config{
		Name: "tiny2", QueueDepth: 8,
		Channels: 1, DiesPerChannel: 1,
		BlocksPerDie: 16, PagesPerBlock: 4,
		PageSize:    4096,
		GCThreshold: 0.25,
	}
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, cfg, arb)
	tr := &trace.Trace{}
	for i := 0; i < 600; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			ID: uint64(i), Op: trace.Write,
			LBA:     uint64(i%24) * 4096,
			Size:    4096,
			Arrival: sim.Time(i) * 50 * sim.Microsecond,
		})
	}
	driveTrace(eng, dev, arb, tr)
	die := dev.dies[0]
	programmed := 0
	validTotal := 0
	for b := range die.blocks {
		programmed += die.blocks[b].writePtr
		validTotal += die.blocks[b].validCount
	}
	if programmed+die.freePages != die.totalPages {
		t.Fatalf("accounting: programmed %d + free %d != total %d", programmed, die.freePages, die.totalPages)
	}
	if validTotal != len(die.mapping) {
		t.Fatalf("valid pages %d != mapped lpns %d", validTotal, len(die.mapping))
	}
}

func TestDeterministicCompletionTimes(t *testing.T) {
	run := func() map[uint64]sim.Time {
		arb := nvme.NewSSQ(1, 2)
		eng, dev := testDevice(t, ConfigB(), arb)
		tr, err := workload.Micro(workload.MicroConfig{
			Seed: 42, ReadCount: 800, WriteCount: 800,
			ReadInterArrival: 20 * sim.Microsecond, WriteInterArrival: 20 * sim.Microsecond,
			ReadMeanSize: 16 << 10, WriteMeanSize: 16 << 10,
			AddressSpace: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		return driveTrace(eng, dev, arb, tr)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for id, ta := range a {
		if b[id] != ta {
			t.Fatalf("completion time for %d differs: %v vs %v", id, ta, b[id])
		}
	}
}

func TestReadLatencyOrderingAcrossConfigs(t *testing.T) {
	// SSD-B (2us reads) must finish a read burst far sooner than SSD-A
	// (75us reads).
	elapsed := func(cfg Config) sim.Time {
		arb := nvme.NewSSQ(1, 1)
		eng, dev := testDevice(t, cfg, arb)
		tr := &trace.Trace{}
		for i := 0; i < 200; i++ {
			tr.Requests = append(tr.Requests, trace.Request{
				ID: uint64(i), Op: trace.Read, LBA: uint64(i) << 20, Size: 16 << 10,
			})
		}
		driveTrace(eng, dev, arb, tr)
		return eng.Now()
	}
	ta, tb := elapsed(ConfigA()), elapsed(ConfigB())
	if tb >= ta {
		t.Fatalf("SSD-B (%v) should beat SSD-A (%v) on reads", tb, ta)
	}
}

func TestDieUtilizationReported(t *testing.T) {
	arb := nvme.NewSSQ(1, 1)
	eng, dev := testDevice(t, ConfigA(), arb)
	for i := uint64(0); i < 100; i++ {
		arb.Submit(&nvme.Command{ID: i, Op: trace.Read, LBA: i << 20, Size: 16 << 10})
	}
	dev.Kick()
	eng.RunUntilIdle()
	utils := dev.DieUtilizations()
	var any bool
	for _, u := range utils {
		if u < 0 || u > 1 {
			t.Fatalf("utilization %v out of range", u)
		}
		if u > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no die reported utilization")
	}
}

func TestZeroSizeCommandPanics(t *testing.T) {
	arb := nvme.NewSSQ(1, 1)
	_, dev := testDevice(t, ConfigA(), arb)
	arb.Submit(&nvme.Command{ID: 1, Op: trace.Read, LBA: 0, Size: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size command should panic")
		}
	}()
	dev.Kick()
}

func BenchmarkDeviceMixedLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arb := nvme.NewSSQ(1, 2)
		eng := sim.NewEngine()
		dev, err := New(eng, ConfigA(), arb)
		if err != nil {
			b.Fatal(err)
		}
		for j := uint64(0); j < 2000; j++ {
			op := trace.Read
			if j%2 == 1 {
				op = trace.Write
			}
			arb.Submit(&nvme.Command{ID: j, Op: op, LBA: j << 20, Size: 16 << 10})
		}
		dev.Kick()
		eng.RunUntilIdle()
	}
}
