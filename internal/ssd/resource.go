package ssd

import "srcsim/internal/sim"

// resource is a non-preemptive FIFO server (a die or a channel bus).
// acquire serialises work: the k-th acquisition starts when the (k-1)-th
// finishes. Because nothing is ever cancelled, the server is modelled by
// a single busy-until horizon rather than an explicit queue.
type resource struct {
	eng       *sim.Engine
	busyUntil sim.Time
	// BusyTime accumulates total service time for utilisation metrics.
	BusyTime sim.Time
}

func newResource(eng *sim.Engine) *resource { return &resource{eng: eng} }

// acquire schedules fn to run after holding the resource for dur,
// queueing behind all previously accepted work.
func (r *resource) acquire(dur sim.Time, fn func()) {
	start := r.eng.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	r.BusyTime += dur
	r.eng.Schedule(r.busyUntil, fn)
}

// acquireArg is acquire for arg-carrying continuations: the hot command
// pipeline passes its pooled page-op state here instead of allocating a
// closure per step.
func (r *resource) acquireArg(dur sim.Time, fn func(any), arg any) {
	start := r.eng.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	r.BusyTime += dur
	r.eng.ScheduleArg(r.busyUntil, fn, arg)
}

// utilization returns the busy fraction over elapsed simulated time.
func (r *resource) utilization() float64 {
	now := r.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(r.BusyTime) / float64(now)
}
