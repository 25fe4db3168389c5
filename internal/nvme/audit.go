package nvme

import "srcsim/internal/guard"

// AuditInvariants verifies the SSQ's token and queue accounting:
// tokens stay within [0, weight] (token non-negativity), the pending
// counters agree with the physical queue occupancy, and the
// consistency-check block table empties exactly when the queues do.
// Read-only and O(1) — the block-ref total is maintained incrementally
// (refSum) rather than scanned — so it is safe to run per-event on the
// live sim clock.
func (s *SSQ) AuditInvariants() []guard.Violation {
	var vs []guard.Violation
	if s.rTokens < 0 || s.rTokens > s.readWeight {
		vs = append(vs, guard.Violationf("nvme", "ssq-token-bounds",
			"read tokens %d outside [0,%d]", s.rTokens, s.readWeight))
	}
	if s.wTokens < 0 || s.wTokens > s.writeWeight {
		vs = append(vs, guard.Violationf("nvme", "ssq-token-bounds",
			"write tokens %d outside [0,%d]", s.wTokens, s.writeWeight))
	}
	rsq, wsq := s.QueueDepths()
	if s.pending != rsq+wsq {
		vs = append(vs, guard.Violationf("nvme", "ssq-pending-occupancy",
			"pending %d != rsq %d + wsq %d", s.pending, rsq, wsq))
	}
	if s.pending != s.pendingR+s.pendingW {
		vs = append(vs, guard.Violationf("nvme", "ssq-pending-by-op",
			"pending %d != reads %d + writes %d", s.pending, s.pendingR, s.pendingW))
	}
	if s.pendingR < 0 || s.pendingW < 0 {
		vs = append(vs, guard.Violationf("nvme", "ssq-pending-nonnegative",
			"reads %d writes %d", s.pendingR, s.pendingW))
	}
	if s.pending == 0 && s.blocks.live != 0 {
		vs = append(vs, guard.Violationf("nvme", "ssq-blockmap-leak",
			"queues empty but %d block refs remain", s.blocks.live))
	}
	// Every waiting command holds >= 1 block ref; a command spanning k
	// blocks holds k, so refSum < pending means release ran twice.
	// (Cells with count < 0 cannot exist: release removes a cell when its
	// count reaches 0, so a per-cell scan would only re-check what the
	// ledger already proves.)
	if s.refSum < s.pending {
		vs = append(vs, guard.Violationf("nvme", "ssq-blockmap-underflow",
			"%d block refs for %d pending commands", s.refSum, s.pending))
	}
	return vs
}

// Tokens returns the current (read, write) token pools for diagnostics.
func (s *SSQ) Tokens() (read, write int) { return s.rTokens, s.wTokens }

// AuditInvariants verifies the baseline arbiter's pending accounting
// against its physical queues.
func (m *MultiRR) AuditInvariants() []guard.Violation {
	var vs []guard.Violation
	var occ int
	for i := range m.queues {
		occ += m.queues[i].Len()
	}
	if occ != m.pending {
		vs = append(vs, guard.Violationf("nvme", "multirr-pending-occupancy",
			"pending %d != queue occupancy %d", m.pending, occ))
	}
	if m.pending != m.pendingR+m.pendingW {
		vs = append(vs, guard.Violationf("nvme", "multirr-pending-by-op",
			"pending %d != reads %d + writes %d", m.pending, m.pendingR, m.pendingW))
	}
	if m.pendingR < 0 || m.pendingW < 0 {
		vs = append(vs, guard.Violationf("nvme", "multirr-pending-nonnegative",
			"reads %d writes %d", m.pendingR, m.pendingW))
	}
	return vs
}
