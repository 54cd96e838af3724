package arena

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestFirstSegmentsStayOffHugePages opens 1,024 writers that append one small
// record each, as 1,024 idle connections of the server do, and requires the
// mappings that hold their segments to carry at most one huge page: a
// writer's first segment is a plain make, so it costs the 4 KiB pages it
// touches. Only those mappings are read, so huge pages that other work of
// the process (another test's slab, still being first-touched) faults
// elsewhere do not count.
func TestFirstSegmentsStayOffHugePages(t *testing.T) {
	if b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil || bytes.Contains(b, []byte("[always]")) {
		t.Skip("transparent huge pages are [always] or unknown: a plain make may be huge-backed too")
	}
	debug.FreeOSMemory()
	a := New()
	ws := make([]*Writer, 1024)
	for i := range ws {
		ws[i] = a.NewWriter()
		ws[i].Append([]byte("key"), []byte("value"))
	}
	var ranges [][2]uint64
	for _, s := range *a.segs.Load() {
		start := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(s.buf))))
		ranges = append(ranges, [2]uint64{start, start + uint64(len(s.buf))})
	}
	if len(ranges) != len(ws) {
		t.Fatalf("%d writers made %d segments", len(ws), len(ranges))
	}
	if huge := hugeBytesOver(t, ranges); huge > 2<<20 {
		t.Fatalf("the mappings of 1,024 one-record writers' segments hold %d KiB of huge pages", huge>>10)
	}
	if a.HugeBytes() != 0 || a.slab != nil {
		t.Fatalf("first segments came from a slab (%d huge bytes)", a.HugeBytes())
	}
	runtime.KeepAlive(ws)
}

// hugeBytesOver sums AnonHugePages over the mappings of /proc/self/smaps
// that overlap any of the address ranges.
func hugeBytesOver(t *testing.T, ranges [][2]uint64) uint64 {
	b, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Skip("no /proc/self/smaps")
	}
	var sum uint64
	overlaps := false
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if lo, hi, ok := strings.Cut(f[0], "-"); ok {
			start, err1 := strconv.ParseUint(lo, 16, 64)
			end, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil { // a mapping's header line
				overlaps = false
				for _, r := range ranges {
					overlaps = overlaps || r[0] < end && start < r[1]
				}
				continue
			}
		}
		if overlaps && f[0] == "AnonHugePages:" {
			kb, _ := strconv.ParseUint(f[1], 10, 64)
			sum += kb << 10
		}
	}
	return sum
}
