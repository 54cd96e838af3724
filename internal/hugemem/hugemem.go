// Package hugemem allocates the index's big word arrays, and the slabs the
// arena carves record segments from, so that the kernel can back them with
// transparent huge pages: a probe's prefetch into a 512 MiB slot array or into
// a gigabyte of records then resolves its address from a 2 MiB TLB entry
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
	b := aligned(n * 8)
	s := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	pages := n / wordsPerHugePage
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
			collapse(byteView(s[lo:hi]))
		}()
	}
	wg.Wait()
	return s
}

// Bytes returns n zeroed bytes for a caller that makes its own first touch,
// as the arena does for the segments it carves from a slab. At or above
// Threshold, where Uint64s would grant huge pages, &b[0] is 2 MiB-aligned, the
// whole huge pages of b are advised and not yet faulted — the first write into
// each faults all 2 MiB of it — and huge is true; otherwise b is a plain make
// and huge is false. Nothing is collapsed: a page whose huge fault fell back
// to 4 KiB pages stays that way.
func Bytes(n int) (b []byte, huge bool) {
	if n < Threshold || !advisable() {
		return make([]byte, n), false
	}
	return aligned(n), true
}

// Small returns n zeroed bytes that fault 4 KiB pages, for a buffer that is
// mostly left untouched, such as a writer's first arena segment. It is a plain
// make, but the heap may place it in a range an earlier allocation of this
// package advised for huge pages: the advice stays on the range after the GC
// frees that allocation, and the first touch would fault a whole 2 MiB page.
// Where huge pages are given on advice only, Small withdraws the advice from
// b's whole base pages and drops whatever the runtime's zeroing faulted in.
// aligned advises the range again if a later huge allocation lands there;
// where huge pages are on for all memory ([always]), the operator's policy
// stands.
func Small(n int) []byte {
	b := make([]byte, n)
	if in := inner(b); len(in) > 0 && onAdvice() {
		noHuge(in)
	}
	return b
}

// aligned is the core of both entry points: n zeroed bytes of Go heap starting
// on a 2 MiB boundary, with the whole huge pages inside advised. It
// over-allocates by one huge page and slices to the boundary; the slack on
// either side is dropped, so it is never resident however the runtime zeroed
// the span. When the span sits in re-used address space the runtime zeroes it
// here, touching it as 4 KiB pages before any advice can be given; advise
// accounts for that.
func aligned(n int) []byte {
	raw := make([]byte, n+hugePage)
	skip := int(-uintptr(unsafe.Pointer(&raw[0])) % hugePage)
	b := raw[skip : skip+n : skip+n]
	release(raw[:skip])
	release(raw[skip+n:])
	advise(b[:n/hugePage*hugePage])
	return b
}

// release drops the whole base pages inside s: they read back as zeros. The
// range is rounded inwards, so no byte outside s is ever dropped.
func release(s []byte) {
	if in := inner(s); len(in) > 0 {
		dontNeed(in)
	}
}

// inner returns the whole base pages inside s: s rounded inwards to page
// boundaries, empty when s holds none.
func inner(s []byte) []byte {
	page := os.Getpagesize()
	in := int(uintptr(unsafe.Pointer(unsafe.SliceData(s))) % uintptr(page)) // s[0]'s offset into its page
	lo, hi := (page-in)%page, (in+len(s))/page*page-in
	if hi <= lo {
		return nil
	}
	return s[lo:hi]
}

func byteView(s []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*8)
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
