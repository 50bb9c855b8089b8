package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// stamp is a point on the benchmark clock.
type stamp struct {
	wall  time.Time
	cpu   time.Duration
	steal float64
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuTime(), steal: stealSeconds()} }

// since is the benchmark clock: the wall time elapsed since s with the
// host's steal taken out. On a shared VM the hypervisor runs other guests on
// this VM's vCPUs while they are busy (/proc/stat's steal column), which
// stretched identical runs by up to 60% on a shared 2-vCPU Xeon VM.
// Each busy vCPU either ran this process (its CPU time C) or was stolen (S),
// so a share C/(C+S) of the wall time W was the system's own: the clock
// reads W·C/(C+S), I/O waits included. S counts every vCPU, so steal taken
// while another process of this VM ran is charged to this one too: with
// other busy processes the clock reads low. Result files therefore keep the
// raw wall figures beside it.
func since(s stamp) time.Duration {
	n := now()
	w := n.wall.Sub(s.wall)
	c := (n.cpu - s.cpu).Seconds()
	stolen := n.steal - s.steal
	if stolen <= 0 || c <= 0 {
		return w
	}
	return time.Duration(float64(w) * c / (c + stolen))
}

// wallSince is the raw wall time elapsed since s, in seconds. Result files
// record it next to the benchmark clock's reading of the same interval.
func wallSince(s stamp) float64 { return time.Since(s.wall).Seconds() }

// stealSeconds reads the host's cumulative steal time over all vCPUs from
// /proc/stat (USER_HZ ticks, 100 per second on Linux); 0 where unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// cpuTime is the process's CPU time (CLOCK_PROCESS_CPUTIME_ID), which the
// kernel's paravirt steal accounting keeps free of time given to other
// guests.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
