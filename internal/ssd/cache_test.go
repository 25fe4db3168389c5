package ssd

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"srcsim/internal/nvme"
	"srcsim/internal/sim"
)

// refLRU is the reference CMT semantics: a container/list in recency
// order (front = most recent) and a map from key to its element.
type refLRU struct {
	capacity int
	order    *list.List
	elems    map[uint64]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, order: list.New(), elems: map[uint64]*list.Element{}}
}

func (r *refLRU) Access(key uint64) bool {
	if e, ok := r.elems[key]; ok {
		r.order.MoveToFront(e)
		return true
	}
	if r.order.Len() >= r.capacity {
		lru := r.order.Back()
		delete(r.elems, r.order.Remove(lru).(uint64))
	}
	r.elems[key] = r.order.PushFront(key)
	return false
}

// fibInverse is the multiplicative inverse of the CMT's Fibonacci hash
// constant mod 2^64 (Newton iteration; the constant is odd).
func fibInverse() uint64 {
	const f = 0x9E3779B97F4A7C15
	inv := uint64(f)
	for i := 0; i < 6; i++ {
		inv *= 2 - f*inv
	}
	return inv
}

// keyPools returns the three key sets the equivalence test draws from,
// each about three times the capacity so that streams mix hits, misses
// and evictions.
func keyPools(t *testing.T, c *lruCache, rng *rand.Rand) map[string][]uint64 {
	t.Helper()
	n := 3*c.capacity + 2
	dense := make([]uint64, n)
	wide := make([]uint64, n)
	for i := range dense {
		dense[i] = uint64(i)
		wide[i] = rng.Uint64()
	}
	// Colliding keys: invert the hash so every key's home cell is one of
	// the table's last two cells or its first. Their probe chains wrap
	// the table end, and evictions delete from the middle of a chain.
	inv := fibInverse()
	size := uint64(len(c.index))
	homes := []uint64{size - 1, size - 2, 0}
	collide := make([]uint64, n)
	for i := range collide {
		h := homes[i%len(homes)]<<c.shift | rng.Uint64()>>(64-c.shift)
		collide[i] = h * inv
		if c.home(collide[i]) != int(homes[i%len(homes)]) {
			t.Fatalf("key %#x does not hash to cell %d", collide[i], homes[i%len(homes)])
		}
	}
	return map[string][]uint64{"dense": dense, "wide": wide, "collide": collide}
}

// checkIndex verifies that the index holds exactly the resident keys,
// each reachable from its home cell.
func (c *lruCache) checkIndex() error {
	used := 0
	for _, s := range c.index {
		if s != 0 {
			used++
		}
	}
	if used != len(c.arena) {
		return fmt.Errorf("index holds %d cells for %d resident keys", used, len(c.arena))
	}
	for slot, n := range c.arena {
		cell, ok := c.lookup(n.key)
		if !ok || int(c.index[cell]) != slot+1 {
			return fmt.Errorf("key %#x (slot %d) not reachable", n.key, slot)
		}
	}
	return nil
}

// TestLRUCacheMatchesReference drives lruCache and the reference LRU with
// the same seeded access streams and requires the same hit/miss sequence,
// Len, and head→tail key order at every step.
func TestLRUCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64, 4096} {
		pools := keyPools(t, newLRUCache(capacity), rand.New(rand.NewSource(int64(capacity))))
		for _, name := range []string{"dense", "wide", "collide"} {
			t.Run(fmt.Sprintf("cap%d/%s", capacity, name), func(t *testing.T) {
				pool := pools[name]
				c, ref := newLRUCache(capacity), newRefLRU(capacity)
				rng := rand.New(rand.NewSource(int64(capacity)*31 + int64(len(name))))
				steps := min(4*capacity+2000, 10000)
				for step := 0; step < steps; step++ {
					// Skew toward a hot third of the pool so hits and
					// misses both occur at every capacity.
					k := pool[rng.Intn(len(pool))]
					if rng.Intn(2) == 0 {
						k = pool[rng.Intn(len(pool)/3+1)]
					}
					got, want := c.Access(k), ref.Access(k)
					if got != want {
						t.Fatalf("step %d key %#x: hit %v, reference %v", step, k, got, want)
					}
					if c.Len() != ref.order.Len() {
						t.Fatalf("step %d: Len %d, reference %d", step, c.Len(), ref.order.Len())
					}
					e := ref.order.Front()
					for i := c.head; i >= 0; i = c.arena[i].next {
						if key := c.arena[i].key; key != e.Value.(uint64) {
							t.Fatalf("step %d: %#x where the reference has %#x", step, key, e.Value)
						}
						e = e.Next()
					}
					if capacity <= 64 || step%509 == 0 {
						if err := c.checkIndex(); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				}
				if err := c.checkIndex(); err != nil {
					t.Fatal(err)
				}
				if c.Hits == 0 || c.Misses <= uint64(capacity) {
					t.Fatalf("stream exercised too little: %d hits, %d misses", c.Hits, c.Misses)
				}
			})
		}
	}
}

// TestLRUCacheWarmAccessAllocatesNothing: hits and evicting misses on a
// full cache allocate nothing.
func TestLRUCacheWarmAccessAllocatesNothing(t *testing.T) {
	c := newLRUCache(64)
	for k := uint64(0); k < 64; k++ {
		c.Access(k)
	}
	k := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Access(k % 96) // 64 resident of 96: a mix of hits and misses
		k++
	}); n != 0 {
		t.Fatalf("warm Access allocates %v per call", n)
	}
}

// TestPreconditionAllocatesNothing: filling a fresh device's CMT uses the
// arena and index built by New and allocates nothing.
func TestPreconditionAllocatesNothing(t *testing.T) {
	// AllocsPerRun calls the function once to warm up, then once measured;
	// each call gets a fresh device.
	var devs []*Device
	for i := 0; i < 2; i++ {
		dev, err := New(sim.NewEngine(), ConfigA(), nvme.NewSSQ(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	if n := testing.AllocsPerRun(1, func() {
		devs[0].Precondition(1 << 30)
		devs = devs[1:]
	}); n != 0 {
		t.Fatalf("Precondition allocates %v", n)
	}
}
