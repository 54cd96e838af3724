package arena

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestAppendRecordRoundTrip pins the record encoding: every (key, value)
// shape round-trips bit-exactly, including empty keys, empty values, and
// lengths spanning the one- and two-byte uvarint ranges.
func TestAppendRecordRoundTrip(t *testing.T) {
	a := New(WithSegmentBytes(256))
	w := a.NewWriter()
	type kv struct{ k, v []byte }
	var want []kv
	var refs []Ref
	for _, klen := range []int{0, 1, 7, 8, 63, 200} {
		for _, vlen := range []int{0, 1, 16, 130} {
			k := bytes.Repeat([]byte{byte(klen + 1)}, klen)
			v := bytes.Repeat([]byte{byte(vlen + 2)}, vlen)
			want = append(want, kv{k, v})
			refs = append(refs, w.Append(k, v))
		}
	}
	for i, ref := range refs {
		k, v := a.Record(ref)
		if !bytes.Equal(k, want[i].k) || !bytes.Equal(v, want[i].v) {
			t.Fatalf("record %d: got (%d,%d) bytes, want (%d,%d)",
				i, len(k), len(v), len(want[i].k), len(want[i].v))
		}
	}
	if total, live := a.Segments(); total < 2 || live != total {
		t.Fatalf("expected multiple live segments from a 256B cap, got total=%d live=%d", total, live)
	}
}

// TestOversizedRecord verifies a record larger than the segment capacity
// gets a dedicated segment instead of failing.
func TestOversizedRecord(t *testing.T) {
	a := New(WithSegmentBytes(64))
	w := a.NewWriter()
	big := bytes.Repeat([]byte{0xab}, 1000)
	ref := w.Append([]byte("k"), big)
	_, v := a.Record(ref)
	if !bytes.Equal(v, big) {
		t.Fatal("oversized record corrupted")
	}
}

// TestRecordZeroAlloc pins the zero-copy read path: Record allocates
// nothing.
func TestRecordZeroAlloc(t *testing.T) {
	a := New()
	w := a.NewWriter()
	ref := w.Append([]byte("hello"), []byte("world"))
	var sink byte
	allocs := testing.AllocsPerRun(100, func() {
		k, v := a.Record(ref)
		sink += k[0] + v[0]
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %v times per run", allocs)
	}
	_ = sink
}

// TestRetireAndAdvance drives the reclamation protocol: retiring every
// record of a sealed segment makes it a candidate, and Advance unlinks it
// once the epoch has stepped past the retire stamp with no pin parked at or
// before it.
func TestRetireAndAdvance(t *testing.T) {
	a := New(WithSegmentBytes(64))
	w := a.NewWriter()
	var refs []Ref
	for i := 0; i < 32; i++ {
		refs = append(refs, w.Append([]byte{byte(i), 1, 2, 3}, []byte{4, 5, 6, 7}))
	}
	// Seal the tail segment by forcing a new one.
	w.Append(bytes.Repeat([]byte{9}, 64), nil)
	for _, r := range refs {
		a.Retire(r)
	}
	if n := a.Advance(); n == 0 {
		// First Advance may only stamp-step; one more must free.
		if n = a.Advance(); n == 0 {
			t.Fatal("fully-dead sealed segments never reclaimed")
		}
	}
	if a.Freed() == 0 {
		t.Fatal("Freed() did not advance")
	}
	total, live := a.Segments()
	if live >= total {
		t.Fatalf("no directory slot was nil'd: total=%d live=%d", total, live)
	}
}

// TestPinBlocksReclamation verifies a parked pin holds every segment retired
// at or after its entry epoch, and releasing it unblocks Advance.
func TestPinBlocksReclamation(t *testing.T) {
	a := New(WithSegmentBytes(64))
	w := a.NewWriter()
	p := a.NewPin()
	p.Enter(a)
	var refs []Ref
	for i := 0; i < 32; i++ {
		refs = append(refs, w.Append([]byte{byte(i), 1, 2, 3}, []byte{4, 5, 6, 7}))
	}
	w.Append(bytes.Repeat([]byte{9}, 64), nil) // seal
	for _, r := range refs {
		a.Retire(r)
	}
	a.Advance()
	if n := a.Advance(); n != 0 {
		t.Fatalf("reclaimed %d segments under an active pin", n)
	}
	p.Exit()
	a.Advance()
	if a.Freed() == 0 {
		t.Fatal("exit did not unblock reclamation")
	}
}

// TestConcurrentWritersReaders hammers the publication protocol under the
// race detector: each writer appends records and publishes their Refs
// through an atomic slot; readers load slots and verify record contents.
func TestConcurrentWritersReaders(t *testing.T) {
	a := New(WithSegmentBytes(1 << 12))
	const writers, perWriter = 4, 400
	slots := make([]atomic.Uint64, writers*perWriter)
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := a.NewWriter()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("key-%d-%d", wi, i))
				v := bytes.Repeat([]byte{byte(wi)}, i%64)
				ref := w.Append(k, v)
				// Publish: 1<<63 marks "set" so the zero Ref stays usable.
				slots[wi*perWriter+i].Store(uint64(ref) | 1<<63)
			}
		}(wi)
	}
	for ri := 0; ri < 2; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := a.NewPin()
			for pass := 0; pass < 50; pass++ {
				for i := range slots {
					p.Enter(a)
					if w := slots[i].Load(); w != 0 {
						k, v := a.Record(Ref(w &^ (1 << 63)))
						if len(k) == 0 || len(v) > 64 {
							t.Errorf("slot %d: bad record (%d,%d)", i, len(k), len(v))
						}
					}
					p.Exit()
				}
			}
		}()
	}
	wg.Wait()
}

// checkRecordAddr asserts RecordAddr's contract for one (ref, span) without
// re-deriving its arithmetic: first is the record's first byte; next, when
// given, is the start of the cache line after first's, inside the segment, and
// reached by a record of span bytes; when withheld, either such a record ends
// on first's line or the line after starts past the segment.
func checkRecordAddr(t *testing.T, a *Arena, ref Ref, span int) (first, next unsafe.Pointer) {
	t.Helper()
	buf := (*a.segs.Load())[ref.seg()].buf
	first, next = a.RecordAddr(ref, span)
	if first != unsafe.Pointer(&buf[ref.off()]) {
		t.Fatalf("RecordAddr(%#x).first = %p, want %p", ref, first, &buf[ref.off()])
	}
	lineEnd := uintptr(first) | 63             // last byte of first's line
	last := uintptr(first) + uintptr(span) - 1 // last byte of a span-byte record
	bufEnd := uintptr(unsafe.Pointer(&buf[len(buf)-1]))
	if next != nil {
		if uintptr(next) != lineEnd+1 || uintptr(next) > bufEnd || last < uintptr(next) {
			t.Fatalf("RecordAddr(%#x, %d).next = %p: first %p, segment ends %#x", ref, span, next, first, bufEnd)
		}
	} else if last > lineEnd && lineEnd+1 <= bufEnd {
		t.Fatalf("RecordAddr(%#x, %d) withheld the successor line: first %p, segment ends %#x", ref, span, first, bufEnd)
	}
	return first, next
}

// TestRecordAddr pins the prefetch address helper: a live ref yields the
// address of the record's first byte (its length header, two bytes before a
// short key) and, for a record long enough to straddle, the next line's; and
// every ref that cannot be resolved — a segment index past the directory, an
// offset past the segment, a reclaimed segment — yields nil without
// panicking, because its caller feeds it whatever a racing slot word held.
func TestRecordAddr(t *testing.T) {
	a := New(WithSegmentBytes(64))
	w := a.NewWriter()
	var refs []Ref
	for i := 0; i < 32; i++ {
		refs = append(refs, w.Append([]byte{byte(i), 1, 2, 3}, []byte{4, 5, 6, 7}))
	}
	for _, r := range refs {
		k, _ := a.Record(r)
		first, _ := checkRecordAddr(t, a, r, 10)
		if got, want := uintptr(first)+2, uintptr(unsafe.Pointer(&k[0])); got != want {
			t.Fatalf("RecordAddr(%#x)+2 = %#x, want the key's address %#x", r, got, want)
		}
	}
	total, _ := a.Segments()
	if p, n := a.RecordAddr(MakeRef(uint32(total), 0), 65); p != nil || n != nil {
		t.Fatalf("segment past the directory resolved to %p, %p", p, n)
	}
	if p, n := a.RecordAddr(MakeRef(0, 64), 65); p != nil || n != nil {
		t.Fatalf("offset past the segment resolved to %p, %p", p, n)
	}
	if p, n := a.RecordAddr(Ref(refMask), 65); p != nil || n != nil {
		t.Fatalf("all-ones ref resolved to %p, %p", p, n)
	}

	// The successor line, over every offset of a segment several lines long,
	// of one that is not a multiple of a line, and of the dedicated segment of
	// an oversized record (sized to the record, which so ends on the segment's
	// last byte): spans that stay on the line, reach exactly its last byte,
	// cross by one byte, and the unknown-length span; the last line's refs
	// have no successor inside the segment, whatever the span.
	for _, segBytes := range []int{256, 200} {
		b := New(WithSegmentBytes(segBytes))
		bw := b.NewWriter()
		bw.Append([]byte("k"), []byte("v"))
		big := bw.Append([]byte("big"), make([]byte, 3*segBytes+1))
		for _, seg := range []uint32{0, big.seg()} {
			n := len((*b.segs.Load())[seg].buf)
			sawNext, sawEdge := false, false
			for off := 0; off < n; off++ {
				for _, span := range []int{1, 18, 64, 65, 150} {
					first, next := checkRecordAddr(t, b, MakeRef(seg, uint32(off)), span)
					sawNext = sawNext || next != nil
					// A record that would cross, but the line after starts past the end.
					sawEdge = sawEdge || (next == nil && (uintptr(first)+uintptr(span)-1)|63 != uintptr(first)|63)
				}
			}
			if !sawNext || !sawEdge {
				t.Fatalf("segment %d of %d bytes: successor seen %v, withheld at the segment's end %v", seg, n, sawNext, sawEdge)
			}
		}
	}

	w.Append(bytes.Repeat([]byte{9}, 64), nil) // seal the tail segment
	for _, r := range refs {
		a.Retire(r)
	}
	a.Advance()
	a.Advance()
	if a.Freed() == 0 {
		t.Fatal("no segment was reclaimed")
	}
	if p, n := a.RecordAddr(refs[0], 65); p != nil || n != nil {
		t.Fatalf("reclaimed segment resolved to %p, %p", p, n)
	}
}

// TestSlabSegmentsRace races readers against writers across more than 64
// slab segments under the race detector. Every segment after a writer's
// first is handed over by the background first touch, so the detector sees
// each touch goroutine's writes against the writer's appends and the
// readers' record loads; readers check every published record byte for byte.
func TestSlabSegmentsRace(t *testing.T) {
	const writers, valueBytes = 2, 8000
	perWriter := 33 * DefaultSegmentBytes / (valueBytes + 16) // ≥ 32 slab segments each
	var values [256][]byte
	for i := range values {
		values[i] = bytes.Repeat([]byte{byte(i)}, valueBytes)
	}
	key := func(wi, i int) []byte { return []byte(fmt.Sprintf("key-%d-%d", wi, i)) }

	a := New()
	slots := make([]atomic.Uint64, writers*perWriter)
	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(writers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer running.Add(-1)
			w := a.NewWriter()
			for i := 0; i < perWriter; i++ {
				ref := w.Append(key(wi, i), values[byte(wi*perWriter+i)])
				slots[wi*perWriter+i].Store(uint64(ref) | 1<<63)
			}
		}(wi)
	}
	var checked atomic.Int64
	for ri := 0; ri < 2; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := a.NewPin()
			for last := false; !last; {
				last = running.Load() == 0
				for i := range slots {
					p.Enter(a)
					if w := slots[i].Load(); w != 0 {
						k, v := a.Record(Ref(w &^ (1 << 63)))
						if !bytes.Equal(k, key(i/perWriter, i%perWriter)) || !bytes.Equal(v, values[byte(i)]) {
							t.Errorf("slot %d: record (%q, %d bytes) does not match what was appended", i, k, len(v))
						}
						checked.Add(1)
					}
					p.Exit()
				}
			}
		}()
	}
	wg.Wait()
	if checked.Load() < int64(2*len(slots)) {
		t.Fatalf("readers checked %d records, want >= %d: a full final pass each over %d", checked.Load(), 2*len(slots), len(slots))
	}
	var huge int
	for _, s := range *a.segs.Load() {
		if s.huge {
			huge++
		}
	}
	total, _ := a.Segments()
	cur, _ := a.carving()
	if slab := total - writers; slab < 64 || (cur.huge && huge != slab) {
		t.Fatalf("%d slab segments, %d of them marked huge: want >= 64, all huge where the slab is", slab, huge)
	}
	if got, want := a.HugeBytes(), uint64(huge*DefaultSegmentBytes); got != want {
		t.Fatalf("HugeBytes = %d, want %d", got, want)
	}
}

// TestPlainSegments pins which segments stay plain makes: a writer's first,
// the dedicated segment of a record larger than a segment, and every segment
// of an arena built with a non-default WithSegmentBytes, which never
// allocates a slab at all.
func TestPlainSegments(t *testing.T) {
	a := New()
	w := a.NewWriter()
	small := make([]byte, 1000)
	var refs []Ref
	for i := 0; i < 3*DefaultSegmentBytes/len(small); i++ {
		refs = append(refs, w.Append([]byte("k"), small))
	}
	big := w.Append([]byte("big"), make([]byte, DefaultSegmentBytes+1))
	after := w.Append([]byte("k"), small)
	segs := *a.segs.Load()
	cur, tail := a.carving()
	if segs[refs[0].seg()].huge || segs[big.seg()].huge {
		t.Fatalf("first segment huge %v, oversized record's segment huge %v: both must be plain",
			segs[refs[0].seg()].huge, segs[big.seg()].huge)
	}
	if n := len(segs[big.seg()].buf); n != recordSize(3, DefaultSegmentBytes+1) {
		t.Fatalf("oversized record's segment is %d bytes, want exactly the record", n)
	}
	if tail == nil || segs[refs[len(refs)-1].seg()].slab != cur || segs[after.seg()].slab != cur ||
		segs[after.seg()].huge != cur.huge {
		t.Fatal("a default-sized segment after the first was not carved from the slab")
	}

	for _, size := range []int{DefaultSegmentBytes / 2, 2 * DefaultSegmentBytes} {
		b := New(WithSegmentBytes(size))
		bw := b.NewWriter()
		for i := 0; i < 4*size/len(small); i++ {
			bw.Append([]byte("k"), small)
		}
		if total, _ := b.Segments(); total < 3 {
			t.Fatalf("WithSegmentBytes(%d): %d segments, want several", size, total)
		}
		if cur, tail := b.carving(); tail != nil || cur != nil || b.HugeBytes() != 0 {
			t.Fatalf("WithSegmentBytes(%d): a slab was allocated (%d huge bytes)", size, b.HugeBytes())
		}
	}
}

// TestOpenSegmentNeverQueued: an open segment publishes used only per 4 KiB
// page, so records retired before their page's count was stored push its dead
// count past its used count. That segment must not be queued while its writer
// still owns it, and must be queued when the writer seals it, once all of it
// is dead.
func TestOpenSegmentNeverQueued(t *testing.T) {
	a := New(WithSegmentBytes(8 << 10))
	w := a.NewWriter()
	var refs []Ref
	for i := 0; i < 16; i++ {
		refs = append(refs, w.Append([]byte{byte(i), 1, 2, 3}, []byte{4, 5, 6, 7}))
	}
	for _, r := range refs {
		a.Retire(r)
	}
	seg := (*a.segs.Load())[0]
	if used, dead := seg.used.Load(), seg.dead.Load(); dead <= used || seg.sealed.Load() {
		t.Fatalf("used %d, dead %d, sealed %v: want an open segment with dead > used", used, dead, seg.sealed.Load())
	}
	a.Advance()
	if a.Advance() != 0 || len(a.retired) != 0 || seg.candidate {
		t.Fatal("an open segment was queued for reclamation")
	}
	w.Append([]byte("k"), make([]byte, 8<<10)) // does not fit: seals segment 0
	if want := uint64(16 * recordSize(4, 4)); !seg.sealed.Load() || seg.used.Load() != want || seg.dead.Load() != want {
		t.Fatalf("sealed %v, used %d, dead %d: want sealed with both %d", seg.sealed.Load(), seg.used.Load(), seg.dead.Load(), want)
	}
	if !seg.candidate {
		t.Fatal("a sealed, fully dead segment was not queued at seal")
	}
	a.Advance()
	if _, live := a.Segments(); live != 1 || a.Freed() != 1 {
		t.Fatalf("%d segments live, %d freed after Advance: want the dead one unlinked", live, a.Freed())
	}
}

// TestSegmentStatsUsed: SegmentStats().Used is exact on every sealed segment
// and trails the writer's bump pointer by less than a page on the open one,
// over records of many sizes, including ones longer than a page.
func TestSegmentStatsUsed(t *testing.T) {
	a := New(WithSegmentBytes(64 << 10))
	w := a.NewWriter()
	appended := map[uint32]uint64{} // bytes appended per segment
	for i := 0; i < 4000; i++ {
		vlen := (i * 37) % 300
		if i%500 == 499 {
			vlen = 9000
		}
		ref := w.Append([]byte{byte(i), byte(i >> 8)}, make([]byte, vlen))
		appended[ref.seg()] += uint64(recordSize(2, vlen))
		stats := a.SegmentStats()
		for id, s := range stats {
			switch {
			case s.Sealed && s.Used != appended[uint32(id)]:
				t.Fatalf("record %d: sealed segment %d reports Used %d, appended %d", i, id, s.Used, appended[uint32(id)])
			case !s.Sealed && (uint32(id) != w.id || s.Used > uint64(w.off) || uint64(w.off)-s.Used >= pageBytes):
				t.Fatalf("record %d: open segment %d reports Used %d, bump pointer %d (writer on segment %d)", i, id, s.Used, w.off, w.id)
			}
		}
	}
	if total, _ := a.Segments(); total < 3 {
		t.Fatalf("%d segments, want several sealed ones", total)
	}
}

// TestTailPrefetchInSegment fills segments, one a whole number of lines and
// one not, to their last byte with records of many sizes, so Append's tail
// prefetch runs at every distance from the segment's end. It must never form
// an address past the segment (the index is bounds-checked, so that would
// panic here), and the records must read back intact. CI runs it in the -race
// and purego builds too.
func TestTailPrefetchInSegment(t *testing.T) {
	for _, segBytes := range []int{4096, 4000} {
		a := New(WithSegmentBytes(segBytes))
		w := a.NewWriter()
		var refs []Ref
		for n := 0; ; {
			size := 3 + (len(refs)*7)%90 // 1-byte key, 1-byte length headers
			if left := segBytes - n; left < size+3 {
				size = left // the last record ends on the segment's last byte
			}
			refs = append(refs, w.Append([]byte{byte(len(refs))}, bytes.Repeat([]byte{byte(len(refs))}, size-3)))
			if n += size; n == segBytes {
				break
			}
		}
		if total, _ := a.Segments(); total != 1 || int(w.off) != segBytes {
			t.Fatalf("%d-byte segment: %d segments, bump pointer %d: want one segment filled to its end", segBytes, total, w.off)
		}
		for i, r := range refs {
			k, v := a.Record(r)
			if len(k) != 1 || k[0] != byte(i) || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, len(v))) {
				t.Fatalf("%d-byte segment: record %d does not read back", segBytes, i)
			}
		}
	}
}

// TestTryAppendDirectoryFull fills the segment directory with one-byte
// segments, one record each: the record that needs segment maxSegments+1 is
// refused, a refusal leaves the writer and every published record as they
// were, a record that still fits the open segment is taken, and Append keeps
// its panic.
func TestTryAppendDirectoryFull(t *testing.T) {
	a := New(WithSegmentBytes(1))
	w := a.NewWriter()
	var first, last Ref
	for i := 0; ; i++ {
		ref, ok := w.TryAppend([]byte("k"), []byte{byte(i)})
		if !ok {
			if i != maxSegments {
				t.Fatalf("refused record %d, want the first refusal at %d", i, maxSegments)
			}
			break
		}
		if i == 0 {
			first = ref
		}
		last = ref
	}
	if _, ok := a.NewWriter().TryAppend(nil, nil); ok {
		t.Fatal("a second writer got a segment from a full directory")
	}
	if k, v := a.Record(first); string(k) != "k" || !bytes.Equal(v, []byte{0}) {
		t.Fatalf("first record reads (%q, %x)", k, v)
	}
	if _, v := a.Record(last); !bytes.Equal(v, []byte{byte((maxSegments - 1) & 0xff)}) {
		t.Fatalf("last record reads %x", v)
	}

	// A writer whose open segment has room keeps appending into it.
	b := New(WithSegmentBytes(64))
	wb := b.NewWriter()
	wb.Append([]byte("a"), nil)
	for len(*b.segs.Load()) < maxSegments {
		b.newSegment(1, true)
	}
	if ref, ok := wb.TryAppend([]byte("b"), nil); !ok || string(b.Key(ref)) != "b" {
		t.Fatalf("a record that fits the open segment: ok %v", ok)
	}
	if _, ok := wb.TryAppend([]byte("c"), make([]byte, 64)); ok {
		t.Fatal("a record past the open segment was taken from a full directory")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append on a full directory did not panic")
		}
	}()
	wb.Append([]byte("c"), make([]byte, 64))
}

// TestAdvanceDropsUnlinkedSegments: once Advance unlinks a segment the arena
// holds no reference to it — not in the directory, and not in the retired
// queue's backing array past its length — so the GC collects it.
func TestAdvanceDropsUnlinkedSegments(t *testing.T) {
	a := New(WithSegmentBytes(64))
	w := a.NewWriter()
	ref := w.Append([]byte("k"), make([]byte, 40))
	var collected atomic.Bool
	runtime.SetFinalizer((*a.segs.Load())[ref.seg()], func(*segment) { collected.Store(true) })
	w.Append([]byte("k"), make([]byte, 40)) // does not fit: seals the first
	a.Retire(ref)
	if n := a.Advance(); n != 1 {
		t.Fatalf("Advance unlinked %d segments, want 1", n)
	}
	for deadline := time.Now().Add(5 * time.Second); !collected.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the GC kept an unlinked segment")
		}
		runtime.GC()
	}
	runtime.KeepAlive(a) // the arena itself stays reachable
}

// TestAdvanceOneDirectory: Advance builds one new directory however many
// segments it unlinks, not one per segment.
func TestAdvanceOneDirectory(t *testing.T) {
	const dead = 512
	a := New(WithSegmentBytes(16))
	w := a.NewWriter()
	var refs []Ref
	for i := 0; i <= dead; i++ {
		refs = append(refs, w.Append([]byte("key"), make([]byte, 12))) // a segment each
	}
	for _, r := range refs[:dead] {
		a.Retire(r)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := a.Advance()
	runtime.ReadMemStats(&after)
	if n != dead {
		t.Fatalf("Advance unlinked %d segments, want %d", n, dead)
	}
	// One directory of dead+1 pointers, plus the free list's growth.
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 4*(dead+1)*8 {
		t.Fatalf("Advance allocated %d bytes to unlink %d segments from a %d-entry directory", bytes, dead, dead+1)
	}
	if _, live := a.Segments(); live != 1 || a.FreeIDs() != dead {
		t.Fatalf("%d segments live, %d ids free", live, a.FreeIDs())
	}
}

// TestSegmentIDsReused: the ids of unlinked segments are reused, so an arena
// whose live set stays bounded never runs out of its 65,536 ids however much
// is appended. Eight live records in one-record segments, each retired when
// it is overwritten: twice the id space's worth of segments, and no record
// is refused.
func TestSegmentIDsReused(t *testing.T) {
	a := New(WithSegmentBytes(16))
	w := a.NewWriter()
	var live [8]Ref
	var vals [8]string
	for i := 0; i < 2*maxSegments; i++ {
		v := fmt.Sprintf("value-%06d", i)
		ref, ok := w.TryAppend([]byte("key"), []byte(v))
		if !ok {
			t.Fatalf("record %d refused, %d ids free", i, a.FreeIDs())
		}
		if i >= len(live) {
			a.Retire(live[i%len(live)])
		}
		live[i%len(live)], vals[i%len(live)] = ref, v
		if i%64 == 0 {
			a.Advance()
		}
	}
	if total, _ := a.Segments(); total > 256 {
		t.Fatalf("the directory grew to %d ids over a live set of %d", total, len(live))
	}
	for j, ref := range live {
		if _, v := a.Record(ref); string(v) != vals[j] {
			t.Fatalf("live record %q reads %q", vals[j], v)
		}
	}
}

// carving returns the slab being carved and its uncarved tail, read under
// slabMu: the goroutine that prepares the next slab segment writes both.
func (a *Arena) carving() (*slab, []byte) {
	a.slabMu.Lock()
	defer a.slabMu.Unlock()
	return a.curSlab, a.slab
}

// TestWriterAllocatesNoSlab: a writer that appends across several slab
// boundaries never allocates a slab on its own goroutine: every slab comes
// from the goroutine that prepares the next slab segment, so neither the
// allocation nor the runtime's zeroing of a reused span lands inside
// TryAppend.
func TestWriterAllocatesNoSlab(t *testing.T) {
	var slabs, onWriter atomic.Int32
	old := newSlab
	newSlab = func(n int) ([]byte, bool) {
		slabs.Add(1)
		buf := make([]byte, 64<<10)
		if bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*Writer).TryAppend")) {
			onWriter.Add(1)
		}
		return old(n)
	}
	t.Cleanup(func() { newSlab = old })
	a := New()
	w := a.NewWriter()
	value := make([]byte, 64<<10)
	for i := 0; i < 2*slabBytes/len(value); i++ {
		w.Append([]byte("k"), value)
	}
	a.slabMu.Lock()
	next := a.ahead // the one segment still being prepared
	a.slabMu.Unlock()
	next.touched.Wait()
	for sparing := true; sparing; runtime.Gosched() { // and the spare slab after it
		a.slabMu.Lock()
		sparing = a.sparing
		a.slabMu.Unlock()
	}
	if slabs.Load() < 2 || onWriter.Load() != 0 {
		t.Fatalf("%d slabs allocated, %d of them inside TryAppend", slabs.Load(), onWriter.Load())
	}
}

// mapIndex is an Index over a map from each key to the Ref that publishes it.
type mapIndex struct {
	mu   sync.Mutex
	refs map[string]Ref
}

func (m *mapIndex) Relocate(p *Pass, recs []Victim) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		if m.refs[string(rec.Key)] != rec.Ref {
			continue // dead
		}
		cp, ok := p.Copy(rec)
		if !ok {
			return
		}
		m.refs[string(rec.Key)] = cp
		p.Done(rec.Ref, cp, true)
	}
}

// TestCompactionKeepsNoVictimRecord: a writer overwrites 1000 keys twenty
// times over in random order, published through a map index, and the passes
// its seals start, each waited for, walk the victims' records through it. Once the last pass has ended every
// key reads its last value, and the arena's chunk buffer, which the walk
// keeps across passes, holds no record: one left there would keep a victim's
// slab reachable until the next pass.
func TestCompactionKeepsNoVictimRecord(t *testing.T) {
	const keys, rounds = 1000, 20
	a := New(WithSegmentBytes(512))
	ix := &mapIndex{refs: map[string]Ref{}}
	a.SetIndex(ix)
	w := a.NewWriter()
	rng := rand.New(rand.NewPCG(1, 2))
	last := make([]int, keys)
	for op := 0; op < keys*rounds; op++ {
		i := rng.IntN(keys)
		k := fmt.Sprintf("key-%04d", i)
		ref := w.Append([]byte(k), []byte(fmt.Sprintf("value-%06d", op)))
		last[i] = op
		ix.mu.Lock()
		old, ok := ix.refs[k]
		ix.refs[k] = ref
		ix.mu.Unlock()
		if ok {
			a.Retire(old)
		}
		a.WaitPass() // the pass this write started, before the next write
	}
	if cs := a.CompactStats(); cs.Passes == 0 || cs.Moved == 0 {
		t.Fatalf("compaction stats %+v: want passes that moved records", cs)
	}
	for i, op := range last {
		k := fmt.Sprintf("key-%04d", i)
		want := fmt.Sprintf("value-%06d", op)
		if key, v := a.Record(ix.refs[k]); string(key) != k || string(v) != want {
			t.Fatalf("%s reads %q = %q, want %q", k, key, v, want)
		}
	}
	for i, rec := range a.crecs[:cap(a.crecs)] {
		if rec.Key != nil || rec.Value != nil {
			t.Fatalf("chunk slot %d still holds victim record %q after the pass", i, rec.Key)
		}
	}
}
