package nvme

import (
	"fmt"
	"math/rand"
	"testing"

	"srcsim/internal/trace"
)

// refSSQ is the reference SSQ: the same WRR arbitration and routing
// rule, with the consistency check's block index kept in a Go map.
type refSSQ struct {
	queues                  [2][]*Command
	readWeight, writeWeight int
	rTokens, wTokens        int
	refMap                  map[uint64]refBlock
	refSum                  int
	Redirected              uint64
}

type refBlock struct {
	queue int
	count int
}

func newRefSSQ(readWeight, writeWeight int) *refSSQ {
	r := &refSSQ{refMap: map[uint64]refBlock{}}
	r.SetWeights(readWeight, writeWeight)
	return r
}

func (r *refSSQ) SetWeights(readWeight, writeWeight int) {
	r.readWeight, r.writeWeight = readWeight, writeWeight
	r.rTokens, r.wTokens = readWeight, writeWeight
}

func (r *refSSQ) Submit(c *Command) {
	natural := rsqIdx
	if c.Op == trace.Write {
		natural = wsqIdx
	}
	target := natural
	first, last := blocksOf(c)
	for b := first; b <= last; b++ {
		if ref, ok := r.refMap[b]; ok {
			target = ref.queue
			break
		}
	}
	if target != natural {
		r.Redirected++
	}
	c.queueHint = target
	for b := first; b <= last; b++ {
		ref := r.refMap[b]
		if ref.count == 0 {
			ref.queue = target
		}
		ref.count++
		r.refSum++
		r.refMap[b] = ref
	}
	r.queues[target] = append(r.queues[target], c)
}

func (r *refSSQ) Fetch() *Command {
	rEmpty, wEmpty := len(r.queues[rsqIdx]) == 0, len(r.queues[wsqIdx]) == 0
	pick := wsqIdx
	switch {
	case rEmpty && wEmpty:
		return nil
	case rEmpty:
	case wEmpty:
		pick = rsqIdx
	default:
		if r.rTokens <= 0 && r.wTokens <= 0 {
			r.rTokens, r.wTokens = r.readWeight, r.writeWeight
		}
		rFrac := float64(r.rTokens) / float64(r.readWeight)
		wFrac := float64(r.wTokens) / float64(r.writeWeight)
		if r.wTokens <= 0 || (r.rTokens > 0 && rFrac > wFrac) {
			pick = rsqIdx
		}
	}
	c := r.queues[pick][0]
	r.queues[pick] = r.queues[pick][1:]
	if !rEmpty && !wEmpty {
		if c.Op == trace.Read && r.rTokens > 0 {
			r.rTokens--
		} else if c.Op == trace.Write && r.wTokens > 0 {
			r.wTokens--
		}
	}
	first, last := blocksOf(c)
	for b := first; b <= last; b++ {
		ref, ok := r.refMap[b]
		if !ok {
			continue
		}
		ref.count--
		r.refSum--
		if ref.count <= 0 {
			delete(r.refMap, b)
		} else {
			r.refMap[b] = ref
		}
	}
	return c
}

// checkTable verifies that the block table's live count matches its
// non-empty cells, that every key is reachable from its home cell, and
// that the load stays at or below 3/4.
func (t *blockTable) checkTable() error {
	used := 0
	for i, c := range t.cells {
		if c.count == 0 {
			continue
		}
		used++
		if j, ok := t.find(c.key); !ok || j != i {
			return fmt.Errorf("block %#x in cell %d not reachable from home %d", c.key, i, t.home(c.key))
		}
	}
	if used != t.live {
		return fmt.Errorf("%d non-empty cells, live count %d", used, t.live)
	}
	if 4*t.live > 3*len(t.cells) {
		return fmt.Errorf("%d live cells in a table of %d: above 3/4 load", t.live, len(t.cells))
	}
	return nil
}

// fibInverse is the multiplicative inverse of the block table's
// Fibonacci hash constant mod 2^64 (Newton iteration; the constant is
// odd).
func fibInverse() uint64 {
	const f = 0x9E3779B97F4A7C15
	inv := uint64(f)
	for i := 0; i < 6; i++ {
		inv *= 2 - f*inv
	}
	return inv
}

// collidingBlocks returns n block numbers (below 2^52, so that
// block<<blockShift is a valid LBA) whose home cell in a table of
// 2^bits cells is one of its last two cells or its first, built by
// inverting the hash. Homes are the hash's top bits, so the same keys
// crowd the ends of every smaller table too: their probe chains wrap
// the table end and drops delete from the middle of a chain.
func collidingBlocks(t *testing.T, rng *rand.Rand, n int, bits uint) []uint64 {
	t.Helper()
	inv := fibInverse()
	size := uint64(1) << bits
	homes := []uint64{size - 1, size - 2, 0}
	probe := blockTable{shift: 64 - bits} // home reads only the shift
	out := make([]uint64, 0, n)
	for len(out) < n {
		home := homes[len(out)%len(homes)]
		b := (home<<(64-bits) | rng.Uint64()>>bits) * inv
		if b >= 1<<(64-blockShift) {
			continue
		}
		if probe.home(b) != int(home) {
			t.Fatalf("block %#x does not hash to cell %d", b, home)
		}
		out = append(out, b)
	}
	return out
}

// TestSSQMatchesReference drives the SSQ and the map-based reference
// with the same seeded streams of multi-block commands and interleaved
// Submit, Fetch and SetWeights. Each stream ramps to a queue depth, churns
// and drains to empty three times, to depths that grow the block table
// across several 3/4-load boundaries. After every step the fetch order,
// queue hints, Redirected, refSum and live block count must agree.
func TestSSQMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pools := map[string][]uint64{
		"dense":   make([]uint64, 64),
		"wide":    make([]uint64, 300),
		"collide": collidingBlocks(t, rng, 300, 12),
	}
	for i := range pools["dense"] {
		pools["dense"][i] = uint64(i)
	}
	for i := range pools["wide"] {
		pools["wide"][i] = uint64(rng.Int63n(1<<(64-blockShift) - 16))
	}
	for _, name := range []string{"dense", "wide", "collide"} {
		t.Run(name, func(t *testing.T) {
			pool := pools[name]
			rng := rand.New(rand.NewSource(int64(len(pool))))
			s, ref := NewSSQ(1, 3), newRefSSQ(1, 3)
			var nextID uint64
			submit := func() {
				nextID++
				op := trace.Read
				if rng.Intn(2) == 0 {
					op = trace.Write
				}
				// Unaligned LBAs, 1 B to 64 KiB; half the commands stay
				// within 4 KiB so single-block chains are common too.
				lba := pool[rng.Intn(len(pool))]<<blockShift + uint64(rng.Intn(1<<blockShift))
				size := 1 + rng.Intn(1<<blockShift)
				if rng.Intn(2) == 0 {
					size = 1 + rng.Intn(64<<10)
				}
				c := &Command{ID: nextID, Op: op, LBA: lba, Size: size}
				rc := *c
				s.Submit(c)
				ref.Submit(&rc)
				if c.queueHint != rc.queueHint {
					t.Fatalf("command %d: queue %d, reference %d", c.ID, c.queueHint, rc.queueHint)
				}
			}
			fetch := func() {
				c, rc := s.Fetch(), ref.Fetch()
				switch {
				case c == nil && rc == nil:
				case c == nil || rc == nil:
					t.Fatalf("fetched %v, reference %v", c, rc)
				case c.ID != rc.ID || c.queueHint != rc.queueHint:
					t.Fatalf("fetched %d from queue %d, reference %d from queue %d",
						c.ID, c.queueHint, rc.ID, rc.queueHint)
				}
			}
			step := 0
			check := func() {
				step++
				if s.Redirected != ref.Redirected || s.refSum != ref.refSum {
					t.Fatalf("step %d: redirected %d refSum %d, reference %d and %d",
						step, s.Redirected, s.refSum, ref.Redirected, ref.refSum)
				}
				if s.blocks.live != len(ref.refMap) {
					t.Fatalf("step %d: %d live blocks, reference %d", step, s.blocks.live, len(ref.refMap))
				}
				if s.blocks.live <= 64 || step%97 == 0 {
					if err := s.blocks.checkTable(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if vs := s.AuditInvariants(); len(vs) != 0 {
					t.Fatalf("step %d: %v", step, vs)
				}
			}
			// run takes random steps until stop holds: a SetWeights with
			// probability 0.02, else a Submit below pSubmit, else a Fetch.
			run := func(pSubmit float64, stop func() bool) {
				for !stop() {
					switch x := rng.Float64(); {
					case x < 0.02:
						rw, ww := 1+rng.Intn(8), 1+rng.Intn(8)
						s.SetWeights(rw, ww)
						ref.SetWeights(rw, ww)
					case x < pSubmit:
						submit()
					default:
						fetch()
					}
					check()
				}
			}
			maxCells := 0
			for _, depth := range []int{8, 64, 400} {
				run(0.8, func() bool { return s.Pending() >= depth })
				maxCells = max(maxCells, len(s.blocks.cells))
				churn := step + 4*depth
				run(0.5, func() bool { return step >= churn })
				run(0.2, func() bool { return s.Pending() == 0 })
				if s.blocks.live != 0 || len(ref.refMap) != 0 {
					t.Fatalf("drained, but %d live blocks (reference %d)", s.blocks.live, len(ref.refMap))
				}
				if err := s.blocks.checkTable(); err != nil {
					t.Fatal(err)
				}
			}
			if maxCells < 8<<minBlockBits || s.Redirected == 0 {
				t.Fatalf("stream exercised too little: table reached %d cells, %d redirects",
					maxCells, s.Redirected)
			}
		})
	}
}

// TestSSQWarmSubmitFetchAllocatesNothing: once the queues and the block
// table have grown to a depth, Submit/Fetch cycles at that depth with
// pre-built commands allocate nothing.
func TestSSQWarmSubmitFetchAllocatesNothing(t *testing.T) {
	const depth = 64
	rng := rand.New(rand.NewSource(1))
	lbas := make([]uint64, 1024)
	sizes := make([]int, len(lbas))
	for i := range lbas {
		lbas[i] = uint64(rng.Intn(256 << blockShift))
		sizes[i] = 1 + rng.Intn(16<<10)
	}
	s := NewSSQ(1, 3)
	for i := 0; i < depth; i++ {
		c := &Command{ID: uint64(i), Op: trace.Read, LBA: lbas[i], Size: sizes[i]}
		if i%2 == 1 {
			c.Op = trace.Write
		}
		s.Submit(c)
	}
	k := 0
	// One cycle drains a few commands and resubmits them at new LBAs,
	// so the depth moves between depth-3 and depth.
	var held [3]*Command
	cycle := func() {
		n := 1 + k%len(held)
		for i := 0; i < n; i++ {
			held[i] = s.Fetch()
		}
		for i := 0; i < n; i++ {
			c := held[i]
			c.LBA, c.Size = lbas[k%len(lbas)], sizes[k%len(lbas)]
			k++
			s.Submit(c)
		}
	}
	for i := 0; i < 20000; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(2000, cycle); n != 0 {
		t.Fatalf("warm Submit/Fetch allocates %v per cycle", n)
	}
	if s.Pending() != depth {
		t.Fatalf("pending %d, want %d", s.Pending(), depth)
	}
}
