package hugemem

import (
	"runtime/debug"
	"testing"
)

var sink [2][]uint64 // keeps slices reachable across the Usage reads

// TestGrant asks for 64 MiB and requires the process's AnonHugePages to rise
// by at least 90% of it, twice. Before the second round a plain slice of the
// same size is allocated (beside the first round's, which is still live, so
// not on its advised range), touched and dropped, so the runtime hands Uint64s
// a span it must zero first — 4 KiB faults before any advice can be given —
// and the grant rests on advise dropping those pages (or, without that, on
// the collapse); plain MADV_HUGEPAGE reads 0 KiB here. FreeOSMemory (a GC plus
// a full scavenge) rather than runtime.GC keeps huge pages that dropped
// slices still hold out of the baseline.
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
}
