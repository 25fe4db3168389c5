package nvme

import (
	"fmt"

	"srcsim/internal/obs"
	"srcsim/internal/trace"
)

// Queue indices within the SSQ.
const (
	rsqIdx = 0 // read submission queue
	wsqIdx = 1 // write submission queue
)

// SSQ is the paper's separate-submission-queue mechanism (Sec. III-A,
// Fig. 4-b): a read SQ (RSQ) and a write SQ (WSQ) sharing one CQ, with
// weighted-round-robin token arbitration between them.
//
// Token semantics follow the paper:
//
//   - RSQ and WSQ are granted ReadWeight and WriteWeight tokens.
//   - Fetching a command consumes one token from the SQ matching the
//     command's I/O type (even if the consistency check physically placed
//     it in the other queue).
//   - When both token pools are exhausted, both reset.
//   - If one SQ is empty, commands are fetched from the other without
//     touching tokens — this is why WRR degrades to plain FIFO under
//     light load, the effect behind Fig. 5's flat bottom-left plots and
//     Table IV's 4:1 row.
//
// Consistency check: a command that overlaps the LBA range of a command
// still waiting in an SQ is routed to that same SQ, preserving
// write-after-read/read-after-write order between dependent requests.
type SSQ struct {
	queues [2]fifo

	readWeight, writeWeight int
	rTokens, wTokens        int

	pending  int
	pendingR int
	pendingW int

	// blocks maps each 4 KiB-aligned block with at least one waiting
	// command to (queue index, waiter count) for the consistency check.
	// refSum mirrors the sum of all counts so the auditor never has to
	// walk the table on the hot path.
	blocks blockTable
	refSum int

	// Counters for tests and metrics.
	FetchedReads, FetchedWrites uint64
	Redirected                  uint64 // consistency-check queue overrides
	TokenResets                 uint64

	obs *ssqObs
}

// ssqObs holds the occupancy histograms resolved by Instrument; nil
// when observability is off.
type ssqObs struct {
	depth  *obs.Histogram // total SQ occupancy sampled per fetch
	depthR *obs.Histogram // RSQ occupancy per fetch
	depthW *obs.Histogram // WSQ occupancy per fetch
}

// Instrument registers this SSQ's counters and resolves its occupancy
// histograms from reg (nil reg is a no-op). SSQs across a flash array
// sharing labels aggregate into the same series.
func (s *SSQ) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	s.obs = &ssqObs{
		depth:  reg.Histogram("nvme", "ssq_depth", labels...),
		depthR: reg.Histogram("nvme", "rsq_depth", labels...),
		depthW: reg.Histogram("nvme", "wsq_depth", labels...),
	}
	reg.CounterFunc("nvme", "ssq_fetched_reads", obs.U64(&s.FetchedReads), labels...)
	reg.CounterFunc("nvme", "ssq_fetched_writes", obs.U64(&s.FetchedWrites), labels...)
	reg.CounterFunc("nvme", "ssq_redirects", obs.U64(&s.Redirected), labels...)
	reg.CounterFunc("nvme", "ssq_token_resets", obs.U64(&s.TokenResets), labels...)
}

// blockShift aligns LBAs to 4 KiB blocks for dependency tracking.
const blockShift = 12

// blockTable is the consistency check's block index: a flat
// open-addressing table from block number to the queue its waiters sit
// in and their count. Every Submit and every Fetch touches it once per
// block, and its entries come and go with every command, so it must
// allocate nothing once grown and leave no tombstones behind.
//
// A cell with count 0 is empty. Keys probe linearly from a Fibonacci
// hash; removal uses backward-shift deletion. The table doubles when
// more than 3/4 of its cells are live, so a probe always ends at an
// empty cell, and it never shrinks.
type blockTable struct {
	cells []blockCell
	shift uint // 64 - log2(len(cells)): the hash keeps the top bits
	live  int  // cells with count > 0
}

type blockCell struct {
	key   uint64
	queue int32
	count int32
}

// minBlockBits sizes a new table: 1<<minBlockBits cells.
const minBlockBits = 4

func newBlockTable() blockTable {
	return blockTable{cells: make([]blockCell, 1<<minBlockBits), shift: 64 - minBlockBits}
}

// home is key's first probe cell.
func (t *blockTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the cell holding key, or the empty cell that ends its
// probe chain and false.
func (t *blockTable) find(key uint64) (cell int, ok bool) {
	mask := len(t.cells) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.count == 0 {
			return i, false
		}
		if c.key == key {
			return i, true
		}
	}
}

// add counts one more waiter on key, placing key in queue if it has no
// waiters yet.
func (t *blockTable) add(key uint64, queue int) {
	i, ok := t.find(key)
	if ok {
		t.cells[i].count++
		return
	}
	t.cells[i] = blockCell{key: key, queue: int32(queue), count: 1}
	t.live++
	if 4*t.live > 3*len(t.cells) {
		t.grow()
	}
}

// drop counts one waiter on key fewer, removing key with its last
// waiter; it reports whether key was present.
func (t *blockTable) drop(key uint64) bool {
	i, ok := t.find(key)
	if !ok {
		return false
	}
	if t.cells[i].count--; t.cells[i].count == 0 {
		t.remove(i)
	}
	return true
}

// remove empties cell i, shifting later cells of its probe chain back
// so every remaining key stays reachable from its home cell.
func (t *blockTable) remove(i int) {
	t.live--
	mask := len(t.cells) - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		c := t.cells[j]
		if c.count == 0 {
			t.cells[i] = blockCell{}
			return
		}
		// The cell at j may fill the hole at i only if i lies on its
		// probe path, i.e. cyclically within [home, j).
		if (j-t.home(c.key))&mask >= (j-i)&mask {
			t.cells[i] = c
			i = j
		}
	}
}

// grow doubles the table and re-inserts every live cell.
func (t *blockTable) grow() {
	old := t.cells
	t.cells = make([]blockCell, 2*len(old))
	t.shift--
	for _, c := range old {
		if c.count != 0 {
			i, _ := t.find(c.key)
			t.cells[i] = c
		}
	}
}

// NewSSQ builds an SSQ with the given initial weights (both must be >= 1;
// the paper constrains w = writeWeight/readWeight >= 1 but the mechanism
// itself accepts any positive weights).
func NewSSQ(readWeight, writeWeight int) *SSQ {
	s := &SSQ{blocks: newBlockTable()}
	s.SetWeights(readWeight, writeWeight)
	return s
}

// SetWeights updates the WRR weights and resets both token pools; SRC
// calls this on every dynamic adjustment.
func (s *SSQ) SetWeights(readWeight, writeWeight int) {
	if readWeight < 1 || writeWeight < 1 {
		panic(fmt.Sprintf("nvme: SSQ weights must be >= 1, got %d/%d", readWeight, writeWeight))
	}
	s.readWeight, s.writeWeight = readWeight, writeWeight
	s.rTokens, s.wTokens = readWeight, writeWeight
}

// Weights returns the current (read, write) weights.
func (s *SSQ) Weights() (read, write int) { return s.readWeight, s.writeWeight }

// WeightRatio returns w = writeWeight / readWeight as used in the paper.
func (s *SSQ) WeightRatio() float64 {
	return float64(s.writeWeight) / float64(s.readWeight)
}

func blocksOf(c *Command) (first, last uint64) {
	first = c.LBA >> blockShift
	end := c.LBA + uint64(c.Size)
	if end == c.LBA {
		end = c.LBA + 1
	}
	last = (end - 1) >> blockShift
	return first, last
}

// Submit implements Arbiter, applying the consistency check.
func (s *SSQ) Submit(c *Command) {
	natural := rsqIdx
	if c.Op == trace.Write {
		natural = wsqIdx
	}
	target := natural

	first, last := blocksOf(c)
	for b := first; b <= last; b++ {
		if i, ok := s.blocks.find(b); ok {
			target = int(s.blocks.cells[i].queue)
			break
		}
	}
	if target != natural {
		s.Redirected++
	}
	c.queueHint = target
	for b := first; b <= last; b++ {
		// A block that already has waiters keeps its original queue so
		// later arrivals follow the chain.
		s.blocks.add(b, target)
		s.refSum++
	}

	s.queues[target].Push(c)
	s.pending++
	if c.Op == trace.Read {
		s.pendingR++
	} else {
		s.pendingW++
	}
}

// Fetch implements Arbiter with the WRR policy described above.
func (s *SSQ) Fetch() *Command {
	rEmpty := s.queues[rsqIdx].Empty()
	wEmpty := s.queues[wsqIdx].Empty()
	if rEmpty && wEmpty {
		return nil
	}
	if s.obs != nil {
		// Sample occupancy at the admission decision (SSQ depth, Fig. 5's
		// x-axis quantity).
		s.obs.depth.Observe(float64(s.pending))
		s.obs.depthR.Observe(float64(s.queues[rsqIdx].Len()))
		s.obs.depthW.Observe(float64(s.queues[wsqIdx].Len()))
	}

	var c *Command
	switch {
	case rEmpty:
		// Only writes waiting: bypass token accounting (paper: fetch
		// from the non-empty SQ "without manipulating the tokens").
		c = s.queues[wsqIdx].Pop()
	case wEmpty:
		c = s.queues[rsqIdx].Pop()
	default:
		// Both backlogged: true WRR. Reset tokens when exhausted.
		if s.rTokens <= 0 && s.wTokens <= 0 {
			s.rTokens, s.wTokens = s.readWeight, s.writeWeight
			s.TokenResets++
		}
		// Pick the queue with the larger remaining token fraction for a
		// smooth interleave; ties favour writes (SRC's priority).
		rFrac := float64(s.rTokens) / float64(s.readWeight)
		wFrac := float64(s.wTokens) / float64(s.writeWeight)
		pick := wsqIdx
		if s.wTokens <= 0 || (s.rTokens > 0 && rFrac > wFrac) {
			pick = rsqIdx
		}
		c = s.queues[pick].Pop()
		// Consume a token from the SQ matching the command's own I/O
		// type, regardless of which queue held it.
		if c.Op == trace.Read {
			if s.rTokens > 0 {
				s.rTokens--
			}
		} else {
			if s.wTokens > 0 {
				s.wTokens--
			}
		}
	}

	s.release(c)
	s.pending--
	if c.Op == trace.Read {
		s.pendingR--
		s.FetchedReads++
	} else {
		s.pendingW--
		s.FetchedWrites++
	}
	return c
}

// release drops the command's block references once it leaves the SQ.
func (s *SSQ) release(c *Command) {
	first, last := blocksOf(c)
	for b := first; b <= last; b++ {
		if s.blocks.drop(b) {
			s.refSum--
		}
	}
}

// Pending implements Arbiter.
func (s *SSQ) Pending() int { return s.pending }

// PendingByOp implements Arbiter.
func (s *SSQ) PendingByOp() (int, int) { return s.pendingR, s.pendingW }

// QueueDepths returns the physical occupancy of (RSQ, WSQ); these can
// differ from PendingByOp when the consistency check redirected commands.
func (s *SSQ) QueueDepths() (rsq, wsq int) {
	return s.queues[rsqIdx].Len(), s.queues[wsqIdx].Len()
}
