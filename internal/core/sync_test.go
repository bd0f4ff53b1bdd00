package core

import (
	"runtime"
	"testing"
	"time"
)

// parkedWaiter starts a goroutine waiting on slot i of s and returns once
// the wait has parked; the channel yields the wait's result.
func parkedWaiter(t *testing.T, s *EpochSignals, i int) <-chan bool {
	t.Helper()
	res := make(chan bool, 1)
	go func() { res <- s.Wait(i) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.parked.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		runtime.Gosched()
	}
	return res
}

func waitResult(t *testing.T, res <-chan bool) bool {
	t.Helper()
	select {
	case ok := <-res:
		return ok
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter was not woken")
		return false
	}
}

func TestEpochSignalsParkedWaitWakes(t *testing.T) {
	var ctl SweepControl
	ctl.BeginSweep(false)
	s := NewEpochSignals(2)
	s.Bind(&ctl)

	res := parkedWaiter(t, s, 1)
	s.Set(0) // another slot: the waiter re-checks and parks again
	s.Set(1)
	if !waitResult(t, res) {
		t.Fatal("Set: wait reported an abort")
	}

	s.Reset()
	res = parkedWaiter(t, s, 0)
	s.Fail()
	if waitResult(t, res) {
		t.Fatal("Fail: wait reported completion")
	}

	s.Reset()
	res = parkedWaiter(t, s, 0)
	ctl.Cancel()
	if waitResult(t, res) {
		t.Fatal("Cancel: wait reported completion")
	}
	ctl.mu.Lock()
	n := len(ctl.parked)
	ctl.mu.Unlock()
	if n != 0 {
		t.Fatalf("control still lists %d parked fabrics", n)
	}
}

// TestEpochSignalsNoLostWakeup runs many short sweeps whose waits race
// their producers' Sets, so some park just as the slot is set.
func TestEpochSignalsNoLostWakeup(t *testing.T) {
	const slots, sweeps = 4, 2000
	var ctl SweepControl
	s := NewEpochSignals(slots)
	s.Bind(&ctl)
	for sweep := 0; sweep < sweeps; sweep++ {
		ctl.BeginSweep(false)
		s.Reset()
		done := make(chan bool)
		go func() {
			ok := true
			for i := 0; i < slots; i++ {
				ok = s.Wait(i) && ok
			}
			done <- ok
		}()
		for i := 0; i < slots; i++ {
			switch {
			case sweep%50 == 0 && i == slots-1:
				// Set only once the waiter has parked, so every run
				// covers the wake-up itself.
				deadline := time.Now().Add(5 * time.Second)
				for s.parked.Load() == 0 {
					if time.Now().After(deadline) {
						t.Fatal("waiter never parked")
					}
					runtime.Gosched()
				}
			case (sweep+i)%3 == 0:
				time.Sleep(time.Microsecond)
			}
			s.Set(i)
		}
		if !waitResult(t, done) {
			t.Fatalf("sweep %d: wait reported an abort", sweep)
		}
	}
}
