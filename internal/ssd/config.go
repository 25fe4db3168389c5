// Package ssd is an MQSim-style multi-queue SSD simulator: an NVMe
// frontend that fetches commands from an nvme.Arbiter under a
// queue-depth window, a page-mapping FTL with a cached mapping table
// (CMT), a write cache, greedy garbage collection, and a backend of
// channels × dies with per-page read/program/erase latencies and bus
// transfer times.
//
// The paper evaluates three devices (Table II); Config reproduces every
// listed parameter and fills the unlisted geometry with MQSim-like
// defaults.
package ssd

import (
	"fmt"

	"srcsim/internal/sim"
)

// WriteCacheMode selects when a write command completes.
type WriteCacheMode int

const (
	// WriteThrough completes a write only after all its pages are
	// programmed to flash; the cache acts as a staging buffer bounding
	// in-flight write data. This matches the steady-state behaviour the
	// paper measures (write throughput tracks flash program bandwidth)
	// and is the default for experiments.
	WriteThrough WriteCacheMode = iota
	// WriteBack completes a write once its pages are accepted into the
	// DRAM cache; dirty pages destage in the background and writes block
	// only when the cache is full. Provided for ablations.
	WriteBack
)

// String implements fmt.Stringer.
func (m WriteCacheMode) String() string {
	switch m {
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return "unknown-cache-mode"
	}
}

// Config describes one simulated SSD.
type Config struct {
	Name string

	// QueueDepth is the maximum number of fetched-but-incomplete
	// commands (Table II "Queue Depth").
	QueueDepth int

	// Geometry.
	Channels       int
	DiesPerChannel int
	BlocksPerDie   int
	PagesPerBlock  int
	PageSize       int // bytes (Table II "Page Capacity")

	// Latencies (Table II).
	ReadLatency    sim.Time // flash array read
	ProgramLatency sim.Time // flash array program ("Write Latency")
	EraseLatency   sim.Time

	// ChannelBandwidth is the per-channel bus rate in bytes/second.
	ChannelBandwidth float64

	// WriteCacheBytes is the DRAM write-cache size (Table II "Write
	// Cache"); CacheMode selects its completion semantics.
	WriteCacheBytes int64
	CacheMode       WriteCacheMode
	// DRAMLatency is the cache-insert latency for write-back acks.
	DRAMLatency sim.Time

	// CMTBytes is the cached-mapping-table size (Table II "CMT"); one
	// entry (mapEntryBytes) covers one logical page.
	CMTBytes int64

	// OverProvision is the fraction of physical capacity hidden from
	// the logical space; GCThreshold is the free-page fraction below
	// which garbage collection runs.
	OverProvision float64
	GCThreshold   float64
}

// mapEntryBytes is the size of one CMT mapping entry (LPN -> PPN).
const mapEntryBytes = 8

// defaults fills unset geometry/latency fields with MQSim-like values.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.Channels <= 0 {
		c.Channels = 8
	}
	if c.DiesPerChannel <= 0 {
		c.DiesPerChannel = 4
	}
	if c.BlocksPerDie <= 0 {
		c.BlocksPerDie = 256
	}
	if c.PagesPerBlock <= 0 {
		c.PagesPerBlock = 256
	}
	if c.PageSize <= 0 {
		c.PageSize = 16 << 10
	}
	if c.ReadLatency <= 0 {
		c.ReadLatency = 75 * sim.Microsecond
	}
	if c.ProgramLatency <= 0 {
		c.ProgramLatency = 300 * sim.Microsecond
	}
	if c.EraseLatency <= 0 {
		c.EraseLatency = 3 * sim.Millisecond
	}
	if c.ChannelBandwidth <= 0 {
		c.ChannelBandwidth = 800 << 20 // 800 MiB/s ONFI-like bus
	}
	if c.WriteCacheBytes <= 0 {
		c.WriteCacheBytes = 256 << 20
	}
	if c.DRAMLatency <= 0 {
		c.DRAMLatency = sim.Microsecond
	}
	if c.CMTBytes <= 0 {
		c.CMTBytes = 2 << 20
	}
	if c.OverProvision <= 0 {
		c.OverProvision = 0.07
	}
	if c.GCThreshold <= 0 {
		c.GCThreshold = 0.05
	}
	return c
}

// Validate reports configuration errors: a negative value in a field
// that zero defaults, then inconsistencies after defaulting.
func (c Config) Validate() error {
	// Zero means "use the default"; a negative value is a mistake that
	// withDefaults would otherwise paper over.
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"CMTBytes", c.CMTBytes < 0},
		{"WriteCacheBytes", c.WriteCacheBytes < 0},
		{"ChannelBandwidth", c.ChannelBandwidth < 0},
		{"DRAMLatency", c.DRAMLatency < 0},
		{"OverProvision", c.OverProvision < 0},
		{"GCThreshold", c.GCThreshold < 0},
	} {
		if f.neg {
			return fmt.Errorf("ssd: %s is negative", f.name)
		}
	}
	c = c.withDefaults()
	if c.PageSize%512 != 0 {
		return fmt.Errorf("ssd: page size %d not a multiple of 512", c.PageSize)
	}
	if c.OverProvision >= 0.5 {
		return fmt.Errorf("ssd: over-provisioning %v unreasonably high", c.OverProvision)
	}
	if c.GCThreshold >= 0.5 {
		return fmt.Errorf("ssd: GC threshold %v unreasonably high", c.GCThreshold)
	}
	return nil
}

// Dies returns the total die count.
func (c Config) Dies() int { return c.Channels * c.DiesPerChannel }

// PhysicalBytes returns raw flash capacity.
func (c Config) PhysicalBytes() int64 {
	return int64(c.Dies()) * int64(c.BlocksPerDie) * int64(c.PagesPerBlock) * int64(c.PageSize)
}

// LogicalBytes returns the user-visible capacity after over-provisioning.
func (c Config) LogicalBytes() int64 {
	return int64(float64(c.PhysicalBytes()) * (1 - c.OverProvision))
}

// CMTCoverageBytes returns how much logical space the CMT can map at
// once; workloads within this footprint see few mapping misses.
func (c Config) CMTCoverageBytes() int64 {
	return c.CMTBytes / mapEntryBytes * int64(c.PageSize)
}

// ConfigA returns Table II column SSD-A: a mainstream TLC-like device.
func ConfigA() Config {
	return Config{
		Name:            "SSD-A",
		QueueDepth:      128,
		WriteCacheBytes: 256 << 20,
		CMTBytes:        2 << 20,
		PageSize:        16 << 10,
		ReadLatency:     75 * sim.Microsecond,
		ProgramLatency:  300 * sim.Microsecond,
	}.withDefaults()
}

// ConfigB returns Table II column SSD-B: a low-read-latency device
// (Z-NAND-like, 2 µs reads).
func ConfigB() Config {
	return Config{
		Name:            "SSD-B",
		QueueDepth:      512,
		WriteCacheBytes: 256 << 20,
		CMTBytes:        2 << 20,
		PageSize:        16 << 10,
		ReadLatency:     2 * sim.Microsecond,
		ProgramLatency:  100 * sim.Microsecond,
	}.withDefaults()
}

// ConfigC returns Table II column SSD-C: small pages, larger caches.
func ConfigC() Config {
	return Config{
		Name:            "SSD-C",
		QueueDepth:      512,
		WriteCacheBytes: 512 << 20,
		CMTBytes:        8 << 20,
		PageSize:        8 << 10,
		ReadLatency:     30 * sim.Microsecond,
		ProgramLatency:  200 * sim.Microsecond,
	}.withDefaults()
}
