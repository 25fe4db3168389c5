package nvme

import (
	"testing"
	"testing/quick"

	"srcsim/internal/trace"
)

func rcmd(id uint64, lba uint64, size int) *Command {
	return &Command{ID: id, Op: trace.Read, LBA: lba, Size: size}
}

func wcmd(id uint64, lba uint64, size int) *Command {
	return &Command{ID: id, Op: trace.Write, LBA: lba, Size: size}
}

func TestFIFOOrder(t *testing.T) {
	var f fifo
	for i := uint64(0); i < 200; i++ {
		f.Push(rcmd(i, i<<12, 4096))
	}
	if f.Len() != 200 {
		t.Fatalf("len %d", f.Len())
	}
	for i := uint64(0); i < 200; i++ {
		if got := f.Pop(); got.ID != i {
			t.Fatalf("pop %d got %d", i, got.ID)
		}
	}
	if !f.Empty() || f.Pop() != nil || f.Peek() != nil {
		t.Fatal("drained fifo misbehaves")
	}
}

func TestFIFOCompaction(t *testing.T) {
	var f fifo
	// Interleave push/pop to force head past the compaction threshold.
	for i := uint64(0); i < 1000; i++ {
		f.Push(rcmd(i, 0, 4096))
		if i%2 == 1 {
			f.Pop()
		}
	}
	if f.Len() != 500 {
		t.Fatalf("len after interleave %d", f.Len())
	}
	want := uint64(500)
	for !f.Empty() {
		if got := f.Pop().ID; got != want {
			t.Fatalf("after compaction got %d want %d", got, want)
		}
		want++
	}
}

func TestMultiRRSpreadsAndCycles(t *testing.T) {
	m := NewMultiRR(4)
	for i := uint64(0); i < 8; i++ {
		m.Submit(rcmd(i, i<<12, 4096))
	}
	if m.Pending() != 8 {
		t.Fatalf("pending %d", m.Pending())
	}
	// Submit is round-robin, fetch is round-robin, so IDs come back in
	// submission order for equal-rate queues.
	for i := uint64(0); i < 8; i++ {
		c := m.Fetch()
		if c == nil || c.ID != i {
			t.Fatalf("fetch %d got %+v", i, c)
		}
	}
	if m.Fetch() != nil {
		t.Fatal("fetch from empty should be nil")
	}
}

func TestMultiRRPendingByOp(t *testing.T) {
	m := NewMultiRR(2)
	m.Submit(rcmd(0, 0, 4096))
	m.Submit(wcmd(1, 1<<20, 4096))
	m.Submit(wcmd(2, 2<<20, 4096))
	r, w := m.PendingByOp()
	if r != 1 || w != 2 {
		t.Fatalf("pending by op %d/%d", r, w)
	}
	m.Fetch()
	m.Fetch()
	m.Fetch()
	r, w = m.PendingByOp()
	if r != 0 || w != 0 {
		t.Fatalf("after drain %d/%d", r, w)
	}
}

func TestMultiRRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 queues should panic")
		}
	}()
	NewMultiRR(0)
}

func TestSSQWeightValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("weight 0 should panic")
		}
	}()
	NewSSQ(0, 1)
}

func TestSSQFetchRatioFollowsWeights(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5} {
		s := NewSSQ(1, w)
		// Deep backlogs on both sides; use disjoint LBAs.
		for i := uint64(0); i < 600; i++ {
			s.Submit(rcmd(i, i<<20, 4096))
			s.Submit(wcmd(1000+i, (1000+i)<<20, 4096))
		}
		reads, writes := 0, 0
		for i := 0; i < 300; i++ {
			c := s.Fetch()
			if c.Op == trace.Read {
				reads++
			} else {
				writes++
			}
		}
		got := float64(writes) / float64(reads)
		want := float64(w)
		if got < want*0.9 || got > want*1.1 {
			t.Fatalf("w=%d: fetched W/R ratio %.2f (R=%d W=%d)", w, got, reads, writes)
		}
	}
}

func TestSSQEmptyQueueBypassesTokens(t *testing.T) {
	s := NewSSQ(1, 4)
	// Only reads present: all fetches must serve reads and consume no
	// write tokens (WRR degrades to FIFO).
	for i := uint64(0); i < 10; i++ {
		s.Submit(rcmd(i, i<<20, 4096))
	}
	for i := 0; i < 10; i++ {
		c := s.Fetch()
		if c == nil || c.Op != trace.Read {
			t.Fatalf("fetch %d: %+v", i, c)
		}
	}
	if s.TokenResets != 0 {
		t.Fatalf("token resets %d during single-queue drain", s.TokenResets)
	}
	if s.wTokens != 4 || s.rTokens != 1 {
		t.Fatalf("tokens consumed on empty-queue bypass: r=%d w=%d", s.rTokens, s.wTokens)
	}
}

func TestSSQWeightRatio(t *testing.T) {
	s := NewSSQ(1, 3)
	if s.WeightRatio() != 3 {
		t.Fatalf("ratio %v", s.WeightRatio())
	}
	s.SetWeights(2, 5)
	if s.WeightRatio() != 2.5 {
		t.Fatalf("ratio %v", s.WeightRatio())
	}
	r, w := s.Weights()
	if r != 2 || w != 5 {
		t.Fatalf("weights %d/%d", r, w)
	}
}

func TestSSQSetWeightsResetsTokens(t *testing.T) {
	s := NewSSQ(1, 1)
	for i := uint64(0); i < 4; i++ {
		s.Submit(rcmd(i, i<<20, 4096))
		s.Submit(wcmd(100+i, (100+i)<<20, 4096))
	}
	s.Fetch()
	s.Fetch()
	s.SetWeights(1, 6)
	if s.rTokens != 1 || s.wTokens != 6 {
		t.Fatalf("tokens after SetWeights: %d/%d", s.rTokens, s.wTokens)
	}
}

func TestSSQConsistencyCheckSameQueue(t *testing.T) {
	s := NewSSQ(1, 1)
	// A read to LBA X waits in RSQ; a write to the same LBA must follow
	// it into RSQ so the write cannot overtake the read.
	s.Submit(rcmd(1, 0x1000, 4096))
	s.Submit(wcmd(2, 0x1000, 4096))
	if s.Redirected != 1 {
		t.Fatalf("redirected = %d, want 1", s.Redirected)
	}
	rsq, wsq := s.QueueDepths()
	if rsq != 2 || wsq != 0 {
		t.Fatalf("queue depths %d/%d, want 2/0", rsq, wsq)
	}
	// Order preserved: read first.
	if c := s.Fetch(); c.ID != 1 {
		t.Fatalf("first fetch %d", c.ID)
	}
	if c := s.Fetch(); c.ID != 2 {
		t.Fatalf("second fetch %d", c.ID)
	}
}

func TestSSQConsistencyChain(t *testing.T) {
	s := NewSSQ(1, 1)
	// W1 -> R2 (overlap W1) -> W3 (overlap R2): all chain into WSQ.
	s.Submit(wcmd(1, 0x10000, 8192))
	s.Submit(rcmd(2, 0x11000, 4096)) // overlaps second block of W1
	s.Submit(wcmd(3, 0x11000, 4096)) // overlaps R2
	rsq, wsq := s.QueueDepths()
	if rsq != 0 || wsq != 3 {
		t.Fatalf("chain should live in WSQ: %d/%d", rsq, wsq)
	}
	order := []uint64{}
	for c := s.Fetch(); c != nil; c = s.Fetch() {
		order = append(order, c.ID)
	}
	for i, want := range []uint64{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("chain order %v", order)
		}
	}
}

func TestSSQConsistencyReleasedAfterFetch(t *testing.T) {
	s := NewSSQ(1, 1)
	s.Submit(rcmd(1, 0x2000, 4096))
	if c := s.Fetch(); c.ID != 1 {
		t.Fatal("fetch")
	}
	// The dependency only applies while the earlier command waits in an
	// SQ; once fetched, a new write to the same LBA goes to its natural
	// queue.
	s.Submit(wcmd(2, 0x2000, 4096))
	rsq, wsq := s.QueueDepths()
	if rsq != 0 || wsq != 1 {
		t.Fatalf("released dependency: depths %d/%d, want 0/1", rsq, wsq)
	}
	if s.Redirected != 0 {
		t.Fatalf("redirect count %d", s.Redirected)
	}
}

func TestSSQNonOverlappingNotRedirected(t *testing.T) {
	s := NewSSQ(1, 1)
	s.Submit(rcmd(1, 0x0000, 4096))
	s.Submit(wcmd(2, 0x1000, 4096)) // adjacent, not overlapping
	if s.Redirected != 0 {
		t.Fatal("adjacent ranges must not redirect")
	}
	rsq, wsq := s.QueueDepths()
	if rsq != 1 || wsq != 1 {
		t.Fatalf("depths %d/%d", rsq, wsq)
	}
}

func TestSSQRedirectedTokenFollowsOpType(t *testing.T) {
	s := NewSSQ(2, 2)
	// Write redirected into RSQ.
	s.Submit(rcmd(1, 0x3000, 4096))
	s.Submit(wcmd(2, 0x3000, 4096))
	// Independent write in WSQ so both queues are non-empty (WRR active).
	s.Submit(wcmd(3, 0x900000, 4096))

	first := s.Fetch() // read (RSQ head, higher remaining fraction tie -> write? both full: tie favours write queue)
	// Regardless of interleaving, after fetching the redirected write the
	// write token pool must have been debited.
	var fetched []*Command
	fetched = append(fetched, first)
	for c := s.Fetch(); c != nil; c = s.Fetch() {
		fetched = append(fetched, c)
	}
	if len(fetched) != 3 {
		t.Fatalf("fetched %d", len(fetched))
	}
	if s.FetchedReads != 1 || s.FetchedWrites != 2 {
		t.Fatalf("counters R=%d W=%d", s.FetchedReads, s.FetchedWrites)
	}
}

func TestSSQPendingByOpWithRedirect(t *testing.T) {
	s := NewSSQ(1, 1)
	s.Submit(rcmd(1, 0x5000, 4096))
	s.Submit(wcmd(2, 0x5000, 4096)) // redirected to RSQ
	r, w := s.PendingByOp()
	if r != 1 || w != 1 {
		t.Fatalf("pending by op %d/%d (redirect must not distort op counts)", r, w)
	}
}

// Property: the SSQ never loses or duplicates commands, fetches each
// queue in FIFO order, and routes a command by the lowest block of its
// span that has waiters: to the queue of the command that took that
// block from no waiters to one. A block keeps that queue until its last
// waiter leaves, even if the command that set it was fetched first, so
// the oracle tracks each block's opener rather than its oldest waiter.
// Spans are unaligned, 1 B to 16 KiB (up to five blocks) over 16 hot
// blocks, so they overlap partially and redirect chains cross block
// boundaries; fetches are interleaved with submissions.
func TestPropertySSQConservation(t *testing.T) {
	const hot = 16 << blockShift
	f := func(ops []uint8, lbaSel, sizeSel []uint16) bool {
		n := min(len(ops), len(lbaSel), len(sizeSel))
		s := NewSSQ(1, 3)
		var waiting []*Command          // in submission order
		opener := map[uint64]*Command{} // block -> command that opened it
		var redirects uint64
		fetch := func() bool {
			c := s.Fetch()
			if c == nil {
				return len(waiting) == 0
			}
			i := 0
			for i < len(waiting) && waiting[i] != c {
				i++
			}
			if i == len(waiting) {
				return false // never submitted, or fetched twice
			}
			// FIFO per queue: a pinned command follows the waiter whose
			// queue it joined.
			for _, w := range waiting[:i] {
				if w.queueHint == c.queueHint {
					return false
				}
			}
			waiting = append(waiting[:i], waiting[i+1:]...)
			return true
		}
		for i := 0; i < n; i++ {
			if ops[i]%4 == 3 {
				if !fetch() {
					return false
				}
				continue
			}
			id := uint64(i + 1)
			lba := uint64(lbaSel[i]) * 7 % hot
			size := 1 + int(sizeSel[i])%(16<<10)
			c, natural := rcmd(id, lba, size), rsqIdx
			if ops[i]%2 == 1 {
				c, natural = wcmd(id, lba, size), wsqIdx
			}
			// Oracle: the opener of the lowest block that has a waiter.
			var pin *Command
			var free []uint64 // blocks of the span without waiters
			for b := lba >> blockShift; b <= (lba+uint64(size)-1)>>blockShift; b++ {
				contended := false
				for _, w := range waiting {
					if w.LBA>>blockShift <= b && b <= (w.LBA+uint64(w.Size)-1)>>blockShift {
						contended = true
						break
					}
				}
				if !contended {
					free = append(free, b)
				} else if pin == nil {
					pin = opener[b]
				}
			}
			s.Submit(c)
			for _, b := range free {
				opener[b] = c
			}
			want := natural
			if pin != nil {
				want = pin.queueHint
			}
			if c.queueHint != want {
				return false
			}
			if want != natural {
				redirects++
			}
			waiting = append(waiting, c)
			if len(s.AuditInvariants()) != 0 {
				return false
			}
		}
		for len(waiting) > 0 {
			if !fetch() {
				return false
			}
		}
		return s.Redirected == redirects && s.blocks.live == 0 && len(s.AuditInvariants()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSSQSubmitFetch(b *testing.B) {
	s := NewSSQ(1, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := uint64(i)
		if i%2 == 0 {
			s.Submit(rcmd(id, id<<14, 8192))
		} else {
			s.Submit(wcmd(id, id<<14, 8192))
		}
		if s.Pending() > 64 {
			s.Fetch()
		}
	}
}
