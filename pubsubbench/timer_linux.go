package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timer sleeps on a Linux timerfd read through the Go netpoller. The
// goroutine parks and gives its processor back while it waits, and wakes
// within microseconds of the deadline. Both alternatives distort the
// latencies being measured: time.Sleep rounds sub-millisecond sleeps up
// to a millisecond on an idle process, and a blocking nanosleep keeps the
// processor, stranding the broker goroutines queued on it until the
// runtime's monitor takes it back, which can be milliseconds later.
type timer struct {
	f  *os.File
	fd uintptr
}

func newTimer() (*timer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep returns after d.
func (t *timer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one shot), it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec[0])), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *timer) Close() error { return t.f.Close() }
