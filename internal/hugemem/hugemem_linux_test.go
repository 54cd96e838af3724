package hugemem

import (
	"bytes"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

var (
	sink     [2][]uint64 // keep slices reachable across the Usage reads
	byteSink []byte
)

// TestGrant asks for 64 MiB and requires the process's AnonHugePages to rise
// by at least 90% of it, twice. Before the second round a plain slice of the
// same size is allocated (beside the first round's, which is still live, so
// not on its advised range), touched and dropped, so the runtime hands Uint64s
// a span it must zero first — 4 KiB faults before any advice can be given —
// and the grant rests on advise dropping those pages (or, without that, on
// the collapse); plain MADV_HUGEPAGE reads 0 KiB here. FreeOSMemory (a GC plus
// a full scavenge) rather than runtime.GC keeps huge pages that dropped
// slices still hold out of the baseline. The byte entry point is granted the
// same way once its caller has made the first touch, and until then holds no
// memory: neither its advised interior nor its alignment slack is resident.
func TestGrant(t *testing.T) {
	if !advisable() {
		t.Skip("transparent huge pages are off ([never] or no sysfs)")
	}
	const words = 8 << 20
	grant := func(round string) []uint64 {
		debug.FreeOSMemory()
		_, before, _ := Usage()
		s := Uint64s(words, nil)
		_, after, _ := Usage()
		if got, want := int64(after)-int64(before), int64(words*8*9/10); got < want {
			t.Errorf("%s: AnonHugePages rose by %d KiB, want >= %d KiB", round, got>>10, want>>10)
		}
		return s
	}
	sink[0] = grant("first span")

	_, before, _ := Usage()
	plain := make([]uint64, words+wordsPerHugePage)
	for i := 0; i < len(plain); i += 512 {
		plain[i] = 1
	}
	if _, after, _ := Usage(); after > before {
		t.Logf("the plain slice itself got %d KiB of huge pages (THP set to always?): the next round does not show the collapse", (after-before)>>10)
	}
	plain = nil
	sink[1] = grant("re-used span")
	sink = [2][]uint64{}

	debug.FreeOSMemory()
	rss0, before, _ := Usage()
	b, huge := Bytes(words * 8)
	if !huge {
		t.Fatal("Bytes: a 64 MiB request was not advised")
	}
	if rss, _, _ := Usage(); rss > rss0+hugePage {
		t.Errorf("Bytes: RSS rose by %d KiB before any touch", (rss-rss0)>>10)
	}
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	if _, after, _ := Usage(); int64(after)-int64(before) < int64(len(b)*9/10) {
		t.Errorf("Bytes: AnonHugePages rose by %d KiB after the touch, want >= %d KiB", (int64(after)-int64(before))>>10, len(b)*9/10>>10)
	}
	byteSink = b
	byteSink = nil
}

// TestSmallWithdrawsAdvice: where huge pages are given on advice only, the
// pages of a Small buffer carry MADV_NOHUGEPAGE (nh in their mapping's
// VmFlags), so a range an earlier huge allocation left advised cannot make
// the buffer's first touch fault a 2 MiB page; the buffer reads as zeros.
func TestSmallWithdrawsAdvice(t *testing.T) {
	if !onAdvice() {
		t.Skip("transparent huge pages are not [madvise]")
	}
	b := Small(1 << 20)
	if len(b) != 1<<20 || bytes.Count(b, []byte{0}) != len(b) {
		t.Fatal("Small did not return 1 MiB of zeros")
	}
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Skip("no /proc/self/smaps")
	}
	addr := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(inner(b)))))
	in := false
	for _, line := range strings.Split(string(smaps), "\n") {
		f := strings.Fields(line)
		if lo, hi, ok := strings.Cut(f0(f), "-"); ok {
			start, err1 := strconv.ParseUint(lo, 16, 64)
			end, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil {
				in = start <= addr && addr < end
				continue
			}
		}
		if in && f0(f) == "VmFlags:" {
			if !slices.Contains(f[1:], "nh") {
				t.Fatalf("the mapping of a Small buffer has VmFlags %v, want nh", f[1:])
			}
			return
		}
	}
	t.Fatalf("no mapping holds %#x", addr)
}

func f0(f []string) string {
	if len(f) == 0 {
		return ""
	}
	return f[0]
}
