//go:build linux

package e2e

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sleepUntil blocks until t. An arrival schedule needs better than the
// millisecond a Go timer can overshoot by when the process is otherwise
// idle (measured here: median 0.58 ms late, against 0.08 ms for nanosleep),
// or every open-loop latency carries the timer's error.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return loops
	}
}

// clockTick is USER_HZ, which Linux fixes at 100 on every architecture Go
// supports.
const clockTick = 100

// ProcCPUSeconds returns the user plus system CPU time a process has used,
// from /proc/<pid>/stat. ok is false where the platform cannot tell.
func ProcCPUSeconds(pid int) (s float64, ok bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	// The command name, field 2, may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(rest) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseFloat(rest[11], 64)
	stime, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return (utime + stime) / clockTick, true
}

// ProcPeakRSSMB returns a process's peak resident set (VmHWM) in MB.
func ProcPeakRSSMB(pid int) (mb float64, ok bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}
