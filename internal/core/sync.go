package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// EpochSignals is the point-to-point synchronization fabric shared by the
// numeric engine and the trisolve subsystem, built for sweeps that repeat
// on a fixed dependency structure (the factor and refactor sweeps, the
// pooled parallel block solve). It keeps a flat array of epoch stamps: slot
// i is complete for the current sweep when its stamp has reached the
// sweep's epoch, so restarting costs one counter increment and no
// allocation. Waits spin briefly through the scheduler and then park until
// the slot they wait on is set (or the sweep aborts) — the Go analogue of
// the paper's write-to-volatile point-to-point synchronization, bounded so
// oversubscribed hosts still make progress. Parking instead of sleeping
// keeps a wait from outlasting its slot by a timer's oversleep, which on a
// busy host is tens to hundreds of microseconds per wait.
//
// The fabric is single-sweep-at-a-time: Reset must not race with Set/Wait
// (callers quiesce between sweeps, which the refactor and solve drivers
// guarantee by construction).
type EpochSignals struct {
	slots []atomic.Uint64
	epoch uint64 // written only by Reset, between sweeps
	abort atomic.Uint64
	// ctl, when bound, is the sweep's shared cancellation fabric: every Set
	// bumps its progress heartbeat (the stall watchdog's sample) and every
	// blocked wait polls its cancel flag so an external cancellation
	// unwinds waiters exactly like an internal abort.
	ctl *SweepControl
	// contended counts waits that actually had to block (ablation metric);
	// waitNanos accumulates the wall-clock time of those blocked waits. Both
	// live on the slow path only — the uncontended fast path reads no clock
	// and touches no counter, preserving the zero-overhead contract.
	contended atomic.Int64
	waitNanos atomic.Int64

	// parked counts waiters parked on wake; want[i] marks a slot a waiter
	// has parked on (never cleared, so it can cost a spurious wake-up but
	// never lose one). Set reads them only to decide whether to wake
	// anyone, so a sweep nobody parks in pays one atomic load per Set. mu
	// guards wake, whose L is set at first use.
	parked atomic.Int32
	want   []atomic.Bool
	mu     sync.Mutex
	wake   sync.Cond
}

// spinWaits is how many times a blocked wait yields to the scheduler
// before it parks.
const spinWaits = 128

// NewEpochSignals returns a fabric with n slots, ready for the first sweep.
func NewEpochSignals(n int) *EpochSignals {
	return &EpochSignals{slots: make([]atomic.Uint64, n), want: make([]atomic.Bool, n), epoch: 1}
}

// Len reports the number of slots.
func (s *EpochSignals) Len() int { return len(s.slots) }

// Bind attaches the fabric to a sweep's cancellation control. Must happen
// before workers launch; the binding is stable for the fabric's lifetime.
func (s *EpochSignals) Bind(ctl *SweepControl) { s.ctl = ctl }

// Reset begins a new sweep: all slots become "not done" at once. The
// previous sweep must have fully quiesced.
func (s *EpochSignals) Reset() { s.epoch++ }

// Set marks slot i complete for the current sweep. One producer per slot.
// The progress bump is the watchdog heartbeat — one atomic add per
// completed block, paid only on monitored sweeps so the unarmed fast path
// keeps its pre-cancellation cost.
func (s *EpochSignals) Set(i int) {
	s.slots[i].Store(s.epoch)
	if c := s.ctl; c != nil && c.armed {
		c.progress.Add(1)
	}
	if s.parked.Load() != 0 && s.want[i].Load() {
		s.wakeAll()
	}
}

// FirstPending reports the first slot not yet complete for the current
// sweep (-1 when all are). Safe to call from a monitor goroutine while the
// sweep runs: slots are atomic and the epoch is stable between Resets.
func (s *EpochSignals) FirstPending() int {
	e := s.epoch
	for i := range s.slots {
		if s.slots[i].Load() < e {
			return i
		}
	}
	return -1
}

// Wait blocks until slot i completes, returning false if the sweep was
// aborted (a worker hit an error) so waiters can unwind.
func (s *EpochSignals) Wait(i int) bool {
	e := s.epoch
	if s.slots[i].Load() >= e {
		return true
	}
	_, ok := s.waitSlow(i, e)
	return ok
}

// WaitTimed is Wait returning also the nanoseconds this call spent blocked
// (0 when the slot was already complete) — the per-worker sync-accounting
// hook of the trace layer.
func (s *EpochSignals) WaitTimed(i int) (int64, bool) {
	e := s.epoch
	if s.slots[i].Load() >= e {
		return 0, true
	}
	return s.waitSlow(i, e)
}

func (s *EpochSignals) waitSlow(i int, e uint64) (int64, bool) {
	s.contended.Add(1)
	t0 := time.Now()
	done, ok := s.settled(i, e)
	for spins := 0; !done && spins < spinWaits; spins++ {
		runtime.Gosched()
		done, ok = s.settled(i, e)
	}
	if !done {
		ok = s.park(i, e)
	}
	d := time.Since(t0).Nanoseconds()
	s.waitNanos.Add(d)
	return d, ok
}

// settled reports whether a wait on slot i for epoch e is over, and if so
// whether the slot completed (true) or the sweep was aborted (false) —
// internally, or by external cancellation (context expiry, stall watchdog)
// through the bound control's flag.
func (s *EpochSignals) settled(i int, e uint64) (done, ok bool) {
	if s.slots[i].Load() >= e {
		return true, true
	}
	if s.abort.Load() == e {
		return true, false
	}
	if c := s.ctl; c != nil && c.flag.Load() {
		return true, false
	}
	return false, false
}

// park blocks until slot i completes for epoch e or the sweep aborts. The
// waiter announces itself (want, parked) before its last check, and Set,
// Fail and Cancel publish before they look for parked waiters, so one side
// always sees the other and no wake-up is lost. A waiter on a bound fabric
// is listed on its control while parked, so Cancel can reach it.
func (s *EpochSignals) park(i int, e uint64) bool {
	c := s.ctl
	if c != nil {
		c.parkedOn(s)
		defer c.unparked(s)
	}
	s.mu.Lock()
	if s.wake.L == nil {
		s.wake.L = &s.mu
	}
	s.want[i].Store(true)
	s.parked.Add(1)
	done, ok := s.settled(i, e)
	for !done {
		s.wake.Wait()
		done, ok = s.settled(i, e)
	}
	s.parked.Add(-1)
	s.mu.Unlock()
	return ok
}

// wakeAll wakes every parked waiter so each re-checks its slot.
func (s *EpochSignals) wakeAll() {
	s.mu.Lock()
	s.wake.Broadcast()
	s.mu.Unlock()
}

// WaitNanos reports the cumulative wall-clock nanoseconds of blocked waits,
// accumulated across sweeps.
func (s *EpochSignals) WaitNanos() int64 { return s.waitNanos.Load() }

// Fail aborts the current sweep; pending and future Waits return false
// until the next Reset.
func (s *EpochSignals) Fail() {
	s.abort.Store(s.epoch)
	if s.parked.Load() != 0 {
		s.wakeAll()
	}
}

// Aborted reports whether the current sweep has been aborted, by a worker
// failure or by external cancellation.
func (s *EpochSignals) Aborted() bool {
	if s.abort.Load() == s.epoch {
		return true
	}
	c := s.ctl
	return c != nil && c.flag.Load()
}

// Contended reports how many waits actually had to block, accumulated
// across sweeps.
func (s *EpochSignals) Contended() int64 { return s.contended.Load() }

// epochBlockFlags adapts EpochSignals to the fine-ND engine's 2D block
// indexing: one resettable completion slot per (i, j) block of the
// hierarchy, shared by the fresh-factorization and refactorization sweeps.
type epochBlockFlags struct {
	n int
	*EpochSignals
}

func newEpochBlockFlags(nblocks int) *epochBlockFlags {
	return &epochBlockFlags{n: nblocks, EpochSignals: NewEpochSignals(nblocks * nblocks)}
}

func (f *epochBlockFlags) idx(i, j int) int   { return i*f.n + j }
func (f *epochBlockFlags) set(i, j int)       { f.Set(f.idx(i, j)) }
func (f *epochBlockFlags) wait(i, j int) bool { return f.Wait(f.idx(i, j)) }
func (f *epochBlockFlags) waitTimed(i, j int) (int64, bool) {
	return f.WaitTimed(f.idx(i, j))
}
func (f *epochBlockFlags) fail() { f.Fail() }

// barrier is a reusable counting barrier for the SyncBarrier ablation mode.
// It deliberately models the heavyweight "rejoin everything" semantics of a
// parallel-for: every participant waits for every other at each phase.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	gen     int
	broken  atomic.Bool
	// cause distinguishes why the barrier broke: a numeric failure
	// (breakBarrier) or an external cancellation (breakCanceled). The
	// distinction lets the barrier-ablation sweeps report a cancelled
	// deadline as ErrCanceled instead of misclassifying it as an internal
	// failure.
	cause atomic.Uint32
	// waitNanos accumulates the wall-clock time participants spent blocked
	// waiting for the rest (the last arriver pays nothing) — the barrier
	// half of the paper's 2.3%-vs-11% sync-overhead comparison.
	waitNanos atomic.Int64
}

// barrier break causes.
const (
	barrierIntact uint32 = iota
	barrierFailed
	barrierCanceled
)

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all parties arrive. Returns false if the barrier was
// broken by an error.
func (b *barrier) await() bool {
	if b.broken.Load() {
		return false
	}
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return !b.broken.Load()
	}
	if gen == b.gen && !b.broken.Load() {
		t0 := time.Now()
		for gen == b.gen && !b.broken.Load() {
			b.cond.Wait()
		}
		b.waitNanos.Add(time.Since(t0).Nanoseconds())
	}
	b.mu.Unlock()
	return !b.broken.Load()
}

// waitNs reports the cumulative blocked nanoseconds across all participants.
func (b *barrier) waitNs() int64 { return b.waitNanos.Load() }

// breakBarrier releases all waiters with a failure indication.
func (b *barrier) breakBarrier() { b.breakWith(barrierFailed) }

// breakCanceled releases all waiters with the external-cancellation cause,
// so the sweep driver can surface ErrCanceled/ErrDeadlineExceeded/ErrStalled
// instead of a numeric failure.
func (b *barrier) breakCanceled() { b.breakWith(barrierCanceled) }

func (b *barrier) breakWith(cause uint32) {
	b.cause.CompareAndSwap(barrierIntact, cause)
	b.broken.Store(true)
	b.mu.Lock()
	b.gen++
	b.count = 0
	b.mu.Unlock()
	b.cond.Broadcast()
}

// canceled reports that the barrier was broken by external cancellation
// (false for an intact barrier or a failure break).
func (b *barrier) canceled() bool { return b.cause.Load() == barrierCanceled }

// reset re-arms a quiesced barrier for a new parallel region after a
// failure (all prior participants must have returned).
func (b *barrier) reset() {
	b.mu.Lock()
	b.broken.Store(false)
	b.cause.Store(barrierIntact)
	b.count = 0
	b.gen++
	b.mu.Unlock()
}
