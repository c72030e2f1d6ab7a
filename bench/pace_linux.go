//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil sleeps an open-loop client until its due time. Go's timers
// wake an idle process only at millisecond granularity, which would
// swamp sub-millisecond replies, so the last two milliseconds are slept
// in nanosleep with the thread's timer slack cut from the default 50 µs
// to 1 µs. The goroutine holds its thread only while it sleeps there.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			runtime.LockOSThread()
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
			runtime.UnlockOSThread()
		}
	}
}
