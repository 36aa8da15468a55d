//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// pacer waits for absolute due times with microsecond accuracy. The Go
// runtime rounds sub-millisecond sleeps of an otherwise idle process up
// to a millisecond, which would make the open loop's latency — timed
// from each op's due time — a measurement of the generator. The pacer
// instead pins its goroutine to a thread, sets that thread's timer
// slack to the minimum, sleeps in the kernel to just short of the due
// time and spins the remainder.
type pacer struct{ origin time.Time }

// spinMargin is how much earlier than due the kernel sleep is asked to
// end: it overshoots by ~15 µs on the reference box.
const spinMargin = 20 * time.Microsecond

// newPacer must be called on the goroutine that will wait; release
// undoes the thread pinning.
func newPacer(origin time.Time) *pacer {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a refusal only costs accuracy
	return &pacer{origin: origin}
}

func (p *pacer) release() { runtime.UnlockOSThread() }

// until returns once due (ns since origin) has passed.
func (p *pacer) until(due int64) {
	for {
		d := time.Duration(due - int64(time.Since(p.origin)))
		if d <= 0 {
			return
		}
		if d > spinMargin {
			ts := syscall.NsecToTimespec(int64(d - spinMargin))
			syscall.Nanosleep(&ts, nil)
		}
	}
}
