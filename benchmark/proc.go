package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// procSample is what /proc says about one process at one instant.
type procSample struct {
	userS, sysS float64 // CPU seconds
	readCalls   int64   // syscr: read-like system calls
	writeCalls  int64   // syscw
	ctxSwitches int64   // voluntary + involuntary
	peakRSSMiB  float64 // VmHWM
}

func (p procSample) cpuS() float64 { return p.userS + p.sysS }

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 for every
// architecture Go runs on.
const clockTick = 100

// sampleProc reads /proc/<pid>/{stat,status,io}. io only feeds per-layer
// metrics and may be unreadable (its counts then stay zero).
func sampleProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("sampleProc: short %sstat", dir)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14 of stat
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("sampleProc: bad cpu fields in %sstat", dir)
	}
	s.userS, s.sysS = float64(ut)/clockTick, float64(st)/clockTick

	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return s, err
	}
	s.peakRSSMiB = float64(procField(status, "VmHWM:")) / 1024
	// Context switches are kept per thread; a thread that has exited takes
	// its count with it, which the server's long-lived threads make rare.
	tasks, _ := filepath.Glob(dir + "task/*/status")
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil {
			s.ctxSwitches += procField(b, "voluntary_ctxt_switches:") +
				procField(b, "nonvoluntary_ctxt_switches:")
		}
	}
	if io, err := os.ReadFile(dir + "io"); err == nil {
		s.readCalls = procField(io, "syscr:")
		s.writeCalls = procField(io, "syscw:")
	}
	return s, nil
}

// procField returns the first integer after the line starting with name, or
// 0 when the line is missing.
func procField(b []byte, name string) int64 {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// environment is the fingerprint every output carries (ROADMAP aim 1a).
func environment() map[string]string {
	env := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"kernel":     "unknown",
		"commit":     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	if c := gitCommit(); c != "" {
		env["commit"] = c
	}
	return env
}

// printEnvironment prints the fingerprint, one "<prefix>key: value" line per
// entry in key order.
func printEnvironment(prefix string) {
	env := environment()
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s%s: %s\n", prefix, k, env[k])
	}
}

// gitCommit resolves HEAD by reading .git directly (the driver's checkout
// is not a repository, and then there is no commit to name).
func gitCommit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(root + "/.git/HEAD")
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		ref, ok := strings.CutPrefix(h, "ref: ")
		if !ok {
			return h
		}
		if b, err := os.ReadFile(root + "/.git/" + ref); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(root + "/.git/packed-refs"); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.HasSuffix(line, " "+ref) {
					return strings.Fields(line)[0]
				}
			}
		}
	}
	return ""
}

// selfCPUNS is this process's cumulative user+system CPU time in ns
// (getrusage reports it to the microsecond).
func selfCPUNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (ru.Utime.Sec+ru.Stime.Sec)*1e9 + (ru.Utime.Usec+ru.Stime.Usec)*1e3
}

// procCPUNS returns a clock of another process's cumulative on-CPU time:
// the sum over its threads of the first field of schedstat, which the
// scheduler keeps in nanoseconds (the tick-based counters of stat are too
// coarse for windows of a few milliseconds). It fails when the kernel does
// not expose schedstat.
func procCPUNS(pid int) (func() int64, error) {
	pattern := fmt.Sprintf("/proc/%d/task/*/schedstat", pid)
	clock := func() int64 {
		var ns int64
		tasks, _ := filepath.Glob(pattern)
		for _, t := range tasks {
			if b, err := os.ReadFile(t); err == nil {
				if f := strings.Fields(string(b)); len(f) > 0 {
					n, _ := strconv.ParseInt(f[0], 10, 64)
					ns += n
				}
			}
		}
		return ns
	}
	if clock() == 0 {
		return nil, fmt.Errorf("no CPU time in %s (schedstat unavailable?)", pattern)
	}
	return clock, nil
}
