// Package hugemem allocates the index's big word arrays so that the kernel
// can back them with transparent huge pages: a probe's prefetch into a
// 512 MiB slot array then resolves its address from a 2 MiB TLB entry
// instead of walking a 4 KiB page table that itself misses the caches.
//
// The memory is ordinary Go heap. Lock-free readers hold a table generation
// across a concurrent grow with nothing but the garbage collector keeping it
// valid, so the helper never maps or unmaps anything: it over-allocates by one
// huge page, slices to the 2 MiB boundary and advises the kernel about the
// whole huge pages inside (DESIGN.md §3.1, "Huge-page backing").
package hugemem

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

const (
	// hugePage is the transparent-huge-page size the helper aligns to.
	hugePage = 2 << 20
	// Threshold is the smallest request, in bytes, that takes the huge-page
	// path. A second-level TLB already covers this much with 4 KiB entries,
	// and below it the 2 MiB of alignment slack is a visible share of the
	// allocation; smaller requests are a plain make.
	Threshold = 8 << 20

	wordsPerHugePage = hugePage / 8
)

// Uint64s returns a slice of n words, zeroed and then handed to fill, which
// may be nil. fill(off, chunk) receives chunk = s[off:off+len(chunk)] and is
// called exactly once for every word of s: once with the whole slice below
// Threshold, and at or above it concurrently from up to GOMAXPROCS goroutines
// on disjoint chunks whose offsets are multiples of 2 MiB worth of words. At or
// above Threshold &s[0] is 2 MiB-aligned and, where the platform and
// /sys/kernel/mm/transparent_hugepage/enabled allow, the whole huge pages of
// s are huge-page backed when Uint64s returns.
func Uint64s(n int, fill func(off int, chunk []uint64)) []uint64 {
	if n < Threshold/8 || !advisable() {
		s := make([]uint64, n)
		if fill != nil {
			fill(0, s)
		}
		return s
	}
	// When the span sits in re-used address space the runtime zeroes it here,
	// touching it as 4 KiB pages before any advice can be given; advise
	// accounts for that.
	raw := make([]uint64, n+wordsPerHugePage)
	skip := int(-uintptr(unsafe.Pointer(&raw[0])) % hugePage / 8)
	s := raw[skip : skip+n : skip+n]
	pages := n / wordsPerHugePage
	advise(s[:pages*wordsPerHugePage])
	if fill == nil {
		fill = touch
	}

	workers := min(runtime.GOMAXPROCS(0), pages)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*pages/workers*wordsPerHugePage, (w+1)*pages/workers*wordsPerHugePage
		end := hi
		if w == workers-1 {
			end = n // the partial page at the tail is filled, not advised
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(lo, s[lo:end])
			collapse(s[lo:hi])
		}()
	}
	wg.Wait()
	return s
}

// touch is the first touch of a chunk nobody fills: one write per huge page,
// because one fault maps the whole advised page.
func touch(_ int, chunk []uint64) {
	for i := 0; i < len(chunk); i += wordsPerHugePage {
		chunk[i] = 0
	}
}

// Usage reports the process's resident set and the part of it that sits in
// anonymous huge pages, in bytes, from /proc/self/smaps_rollup. ok is false
// where that file does not exist (anything but Linux).
func Usage() (rss, anonHuge uint64, ok bool) {
	b, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line) // "AnonHugePages:    524288 kB"
		if len(f) != 3 {
			continue
		}
		kb, _ := strconv.ParseUint(f[1], 10, 64)
		switch f[0] {
		case "Rss:":
			rss = kb << 10
		case "AnonHugePages:":
			anonHuge = kb << 10
		}
	}
	return rss, anonHuge, true
}
