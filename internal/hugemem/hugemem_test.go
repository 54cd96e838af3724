package hugemem

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

const thresholdWords = Threshold / 8

// TestShape pins what every caller relies on: n zeroed words (or bytes) with
// no spare capacity behind them, on either side of the threshold; and above it
// (where huge pages are allowed at all) a 2 MiB-aligned base.
func TestShape(t *testing.T) {
	for _, n := range []int{1, Threshold - 1, Threshold, Threshold + 12345, 4 * Threshold} {
		b, huge := Bytes(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("Bytes(%d): len %d cap %d", n, len(b), cap(b))
		}
		for i, c := range b {
			if c != 0 {
				t.Fatalf("Bytes(%d): byte %d = %#x, want zero", n, i, c)
			}
		}
		if want := n >= Threshold && advisable(); huge != want {
			t.Fatalf("Bytes(%d): huge = %v, want %v", n, huge, want)
		}
		if off := uintptr(unsafe.Pointer(&b[0])) % hugePage; huge && off != 0 {
			t.Fatalf("Bytes(%d): base is %d bytes past a 2 MiB boundary", n, off)
		}
	}
	for _, n := range []int{1, 4096, thresholdWords - 1, thresholdWords, thresholdWords + 12345, 3*thresholdWords + 7} {
		s := Uint64s(n, nil)
		if len(s) != n || cap(s) != n {
			t.Fatalf("n=%d: len %d cap %d", n, len(s), cap(s))
		}
		for i, w := range s {
			if w != 0 {
				t.Fatalf("n=%d: word %d = %#x, want zero", n, i, w)
			}
		}
		if n >= thresholdWords && advisable() {
			if off := uintptr(unsafe.Pointer(&s[0])) % hugePage; off != 0 {
				t.Fatalf("n=%d: base is %d bytes past a 2 MiB boundary", n, off)
			}
		}
	}
}

// TestFillCoversEveryWordOnce checks the fill contract on both paths: every
// word is handed to fill exactly once, chunk offsets are whole huge pages,
// and what fill wrote is what the caller gets back — MADV_COLLAPSE moves the
// pages under the slice after fill has run.
func TestFillCoversEveryWordOnce(t *testing.T) {
	for _, n := range []int{1000, thresholdWords, 2*thresholdWords + 4099} {
		var calls atomic.Int32
		s := Uint64s(n, func(off int, chunk []uint64) {
			calls.Add(1)
			if off%wordsPerHugePage != 0 {
				t.Errorf("n=%d: chunk offset %d is not a whole huge page", n, off)
			}
			for i := range chunk {
				chunk[i] += uint64(off+i) ^ 0x5bd1e995
			}
		})
		if calls.Load() == 0 {
			t.Fatalf("n=%d: fill never ran", n)
		}
		for i, w := range s {
			if w != uint64(i)^0x5bd1e995 {
				t.Fatalf("n=%d: word %d = %#x after %d fill calls", n, i, w, calls.Load())
			}
		}
	}
}

func TestUsage(t *testing.T) {
	rss, huge, ok := Usage()
	if !ok {
		t.Skip("no /proc/self/smaps_rollup on this platform")
	}
	if rss == 0 || huge > rss {
		t.Fatalf("Usage = (%d, %d): want 0 < rss and huge <= rss", rss, huge)
	}
}
