//go:build !linux

package e2e

import "time"

// sleepUntil blocks until t, as precisely as the Go timer allows.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// ProcCPUSeconds is unavailable off Linux; the metrics built on it report
// null.
func ProcCPUSeconds(pid int) (s float64, ok bool) { return 0, false }

// ProcPeakRSSMB is unavailable off Linux; the metrics built on it report
// null.
func ProcPeakRSSMB(pid int) (mb float64, ok bool) { return 0, false }
