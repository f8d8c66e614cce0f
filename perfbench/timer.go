package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// preciseTimer sleeps to a deadline with microsecond precision. The
// runtime's own timers round sub-millisecond waits up to a millisecond
// in its poller, and spinning on a single P starves the poller; a
// timerfd is a file the poller waits on directly, so the wake-up is
// exact and nothing spins. Without a timerfd it falls back to
// time.Sleep.
type preciseTimer struct {
	fd int
	f  *os.File // nil: fall back to time.Sleep
}

func newPreciseTimer() *preciseTimer {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: timerfd_create: %v; pacing with time.Sleep\n", errno)
		return &preciseTimer{}
	}
	return &preciseTimer{fd: int(fd), f: os.NewFile(fd, "timerfd")}
}

// sleepUntil blocks the calling goroutine until t.
func (p *preciseTimer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if p.f != nil {
		// struct itimerspec { it_interval, it_value }: a one-shot relative timer.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		var expirations [8]byte
		if errno == 0 {
			if _, err := p.f.Read(expirations[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(time.Until(t))
}

func (p *preciseTimer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
