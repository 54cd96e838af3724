package simd

import (
	"testing"
	"unsafe"
)

// TestPrefetchNeverFaults calls the stub on the addresses its callers can
// hand it at the edges: nil (an unlinked arena segment), the last byte of an
// allocation, and the line one past a slice's end (the flat array's padded
// tail). A prefetch is a hint, so none may fault, and none may write. The
// one-past-the-end address is taken inside a larger buffer so it stays a
// valid Go pointer under -race's pointer checks.
func TestPrefetchNeverFaults(t *testing.T) {
	Prefetch(nil)

	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	Prefetch(unsafe.Pointer(&buf[len(buf)-1]))

	s := buf[:64]
	Prefetch(unsafe.Add(unsafe.Pointer(&s[0]), len(s)))

	// A pair from the last line of an allocation reaches one line past it.
	PrefetchPair(nil)
	PrefetchPair(unsafe.Pointer(&buf[len(buf)-64]))

	for i := range buf {
		if buf[i] != byte(i) {
			t.Fatalf("prefetch wrote byte %d", i)
		}
	}
}

func BenchmarkPrefetchResident(b *testing.B) {
	var line [64]byte
	for i := 0; i < b.N; i++ {
		Prefetch(unsafe.Pointer(&line[0]))
	}
}
