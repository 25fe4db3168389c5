package ssd

// lruCache is the cached mapping table (CMT): a fixed-capacity LRU set of
// logical page numbers whose mapping entries are resident in DRAM. A miss
// costs a mapping-page read on the owning die (charged by the caller).
//
// Nodes live in a pointer-free arena addressed by index: Access runs on
// every mapping lookup, so the cache must be invisible to the garbage
// collector (a pointer-linked list this size makes every GC scan walk
// the whole table).
type lruCache struct {
	capacity int
	entries  map[uint64]int32 // key -> arena index
	arena    []lruNode
	head     int32 // most recent, -1 when empty
	tail     int32 // least recent, -1 when empty

	Hits, Misses uint64
}

type lruNode struct {
	key        uint64
	prev, next int32
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		entries:  make(map[uint64]int32, capacity),
		head:     -1,
		tail:     -1,
	}
}

// Access touches key and reports whether it was resident. On a miss the
// key is inserted (evicting the LRU entry if full). At capacity — the
// steady state — the evicted node is reused for the inserted key, so a
// warm cache allocates nothing per miss.
func (c *lruCache) Access(key uint64) (hit bool) {
	if i, ok := c.entries[key]; ok {
		c.Hits++
		c.moveToFront(i)
		return true
	}
	c.Misses++
	var i int32
	if len(c.arena) >= c.capacity {
		i = c.tail
		c.unlink(i)
		delete(c.entries, c.arena[i].key)
		c.arena[i].key = key
	} else {
		i = int32(len(c.arena))
		c.arena = append(c.arena, lruNode{key: key})
	}
	c.entries[key] = i
	c.pushFront(i)
	return false
}

// Len returns the resident entry count.
func (c *lruCache) Len() int { return len(c.entries) }

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

func newSlotPool(slots int) *slotPool {
	if slots < 1 {
		slots = 1
	}
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
