package ssd

import "fmt"

// pageLoc addresses a physical page within one die.
type pageLoc struct {
	block int32
	page  int32
}

// blockMeta tracks one erase block's programmed pages and validity.
// lpns and valid are allocated by the block's first program (allocate),
// so a never-written block costs no page arrays. Every reader of them —
// allocate's invalidation of an old copy, liveLPNs, finishErase — only
// reaches blocks with writePtr > 0 (a mapped page, a full GC victim), so
// a nil slice is never indexed.
type blockMeta struct {
	lpns       []uint64
	valid      []bool
	validCount int
	writePtr   int
}

func (b *blockMeta) full(pagesPerBlock int) bool { return b.writePtr >= pagesPerBlock }

// die couples one flash die's timing resource with its slice of the FTL:
// page mapping, active block, free lists, and garbage collection state.
// LPNs are striped across dies (lpn mod dies), so each die owns a
// disjoint logical subspace and needs no cross-die coordination.
type die struct {
	index   int
	res     *resource
	channel *resource

	pagesPerBlock int
	blocks        []blockMeta
	freeBlocks    []int
	active        int
	freePages     int
	totalPages    int
	gcThreshold   float64

	mapping map[uint64]pageLoc

	// writeWaiters are program attempts (parked pageOps) stalled on
	// free-space exhaustion; GC releases them after each erase.
	writeWaiters []*pageOp
	gcRunning    bool

	// Stats.
	GCCollections uint64
	GCRelocations uint64
	GCErases      uint64
	HostPrograms  uint64
}

func newDie(index int, res, channel *resource, blocksPerDie, pagesPerBlock int, gcThreshold float64) *die {
	d := &die{
		index:         index,
		res:           res,
		channel:       channel,
		pagesPerBlock: pagesPerBlock,
		blocks:        make([]blockMeta, blocksPerDie),
		totalPages:    blocksPerDie * pagesPerBlock,
		freePages:     blocksPerDie * pagesPerBlock,
		gcThreshold:   gcThreshold,
		mapping:       make(map[uint64]pageLoc),
	}
	// Block 0 starts active; the rest are free.
	d.active = 0
	for i := 1; i < blocksPerDie; i++ {
		d.freeBlocks = append(d.freeBlocks, i)
	}
	return d
}

// allocate reserves the next physical page for lpn, updating the mapping
// and invalidating any previous version. It returns false when no free
// page exists (caller must wait for GC).
func (d *die) allocate(lpn uint64) bool {
	if d.blocks[d.active].full(d.pagesPerBlock) {
		if len(d.freeBlocks) == 0 {
			return false
		}
		d.active = d.freeBlocks[len(d.freeBlocks)-1]
		d.freeBlocks = d.freeBlocks[:len(d.freeBlocks)-1]
	}
	blk := &d.blocks[d.active]
	if blk.lpns == nil {
		blk.lpns = make([]uint64, d.pagesPerBlock)
		blk.valid = make([]bool, d.pagesPerBlock)
	}
	p := blk.writePtr
	blk.writePtr++
	blk.lpns[p] = lpn
	blk.valid[p] = true
	blk.validCount++
	d.freePages--

	if old, ok := d.mapping[lpn]; ok {
		ob := &d.blocks[old.block]
		if ob.valid[old.page] {
			ob.valid[old.page] = false
			ob.validCount--
		}
	}
	d.mapping[lpn] = pageLoc{block: int32(d.active), page: int32(p)}
	return true
}

// gcNeeded reports whether free space is below the GC watermark.
func (d *die) gcNeeded() bool {
	return float64(d.freePages) < d.gcThreshold*float64(d.totalPages)
}

// pickVictim returns the full, non-active block with the fewest valid
// pages, or -1 when no block would yield free space.
func (d *die) pickVictim() int {
	best, bestValid := -1, d.pagesPerBlock
	for i := range d.blocks {
		b := &d.blocks[i]
		if i == d.active || !b.full(d.pagesPerBlock) {
			continue
		}
		if b.validCount < bestValid {
			best, bestValid = i, b.validCount
		}
	}
	if best >= 0 && bestValid >= d.pagesPerBlock {
		return -1 // relocating a fully valid block gains nothing
	}
	return best
}

// liveLPNs snapshots the still-valid logical pages of a block.
func (d *die) liveLPNs(block int) []uint64 {
	b := &d.blocks[block]
	out := make([]uint64, 0, b.validCount)
	for p := 0; p < b.writePtr; p++ {
		if b.valid[p] {
			out = append(out, b.lpns[p])
		}
	}
	return out
}

// stillIn reports whether lpn currently maps into the given block — a
// host overwrite during GC can invalidate a snapshot entry.
func (d *die) stillIn(lpn uint64, block int) bool {
	loc, ok := d.mapping[lpn]
	return ok && int(loc.block) == block
}

// finishErase recycles a block after its erase completes.
func (d *die) finishErase(block int) {
	b := &d.blocks[block]
	if b.validCount != 0 {
		panic(fmt.Sprintf("ssd: erasing block %d with %d valid pages", block, b.validCount))
	}
	d.freePages += b.writePtr
	b.writePtr = 0
	for p := range b.valid {
		b.valid[p] = false
	}
	d.freeBlocks = append(d.freeBlocks, block)
	d.GCErases++
}

// drainWaiters re-runs stalled program attempts (after GC freed space).
func (d *die) drainWaiters() {
	waiters := d.writeWaiters
	d.writeWaiters = nil
	for _, w := range waiters {
		w.step()
	}
}
