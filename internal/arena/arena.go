// Package arena is the log-structured key/value store backing the bucket
// layout (internal/slotarr's BucketTable): an append-only arena of
// length-prefixed records that turns the hash table into a pure index.
// Records are immutable once published — an overwrite appends a new record
// and swings the index's slot word to the new reference — so a resize moves
// no key or value bytes, only 8-byte slot words, and variable-length []byte
// keys and values ride the same fixed-width index the uint64 tables use.
//
// # Layout
//
// The arena is a set of segments, each a contiguous []byte filled by exactly
// one Writer with a bump pointer (per-worker segments: no two writers ever
// share a segment, so appends are unsynchronized). A record is
//
//	uvarint(len(key)) uvarint(len(value)) key-bytes value-bytes
//
// and is addressed by a Ref packing (segment, offset) into 48 bits — small
// enough to share a slot word with the 8-bit fingerprint the bucket layout
// stores redundantly in the slot's spare high bits.
//
// # Publication and reclamation
//
// A record's bytes are fully written before its Ref is published by the
// index's slot-word CAS; readers load the slot word with an atomic (acquire)
// load and only then touch the bytes, so the CAS/load pair carries the
// happens-before edge and the byte reads are race-free. Superseded and
// deleted records are retired with Retire, which advances the owning
// segment's dead-byte count; a segment whose bytes are all dead is a
// reclamation candidate. Actual freeing is epoch-based: everything that
// dereferences a Ref — readers and writers alike — pins the current epoch
// around the access (Pin.Enter/Exit), Advance steps the global epoch, and a
// candidate segment is unlinked only once every pin has moved past the epoch
// in which it was retired. Unlinking drops the arena's reference; Go's GC
// frees the bytes once the last reader's subslice goes away, so a
// stale-but-pinned reader can never observe recycled memory.
//
// A fully dead segment may be unlinked at any Advance, not only after an
// index rebuild: no slot word points into it (a record is retired only after
// the CAS that stopped publishing it), and a pin that predates its retirement
// holds it. An index rebuild in flight changes nothing: it copies slot words
// with every writer gate held, so it reads only published Refs, whose
// segments are not fully dead. The same argument makes an unlinked segment's
// id safe to reuse: a Ref into it is held only under a pin that Advance
// waited out. PrefetchRecords-style hints load slot words without a pin, but
// RecordAddr dereferences nothing and tolerates any segment, so a hint that
// lands in a reused segment costs one wasted line fill.
//
// # Compaction
//
// Under uniform overwrites a segment rarely becomes fully dead on its own, so
// the arena also compacts. When a writer seals a segment and the arena's dead
// bytes exceed its live bytes (and at least compactFloor segments' worth), the
// seal starts a pass on a goroutine of its own, so no write waits for it. The
// pass copies the live records out of the victims through a writer the arena
// keeps for it and lets every registered Index swing its words to the copies
// (see Pass). Victims are whole
// slabs: a 32 MiB slab goes back to the heap only when every segment carved
// from it is unlinked, so emptying scattered segments of many slabs would free
// nothing. A slab qualifies when every linked segment of it is sealed, it is
// not the slab being carved, and at least half of its bytes are dead; a plain
// segment (a writer's first, an oversized one) is its own slab. The pass ends
// with Advances made under no pin of its own, repeated for a bounded time
// until the handles that pinned before it retired the victims' records have
// exited, and, if it unlinked anything, one runtime.GC: the GC's goal is
// twice the heap live at its last cycle, so without it the freed slabs would
// be reused only after the heap had grown to that goal anyway. A later change
// that recycles segments itself can drop it.
//
// A segment's used count is published lazily: the writer stores it when its
// bump pointer crosses a 4 KiB boundary and once more at seal, just before it
// sets sealed, rather than on every Append (an atomic store is a full fence on
// amd64, and it waited on the tail's store miss). So an open segment's used
// lags its bump pointer by less than 4 KiB, and its retired bytes may exceed
// it; a sealed segment's used is exact. Retire and the reclaim check load
// sealed before used, so they never judge a segment against a stale count:
// only a sealed segment is ever queued.
//
// # Huge segments
//
// A writer's first segment is a plain make, so a writer that appends little
// (an idle connection) costs 4 KiB pages. From its second segment on, a
// default-sized segment is carved, in order, from a 2 MiB-aligned slab that
// internal/hugemem has advised for transparent huge pages, so record reads
// resolve their address from a 2 MiB TLB entry. Each slab segment is
// first-touched before a writer gets it: handing one out starts a goroutine
// that writes one byte per 4 KiB page of the next, which faults its huge page
// off the writer's path, and the writer that takes that segment waits for the
// touch to finish, so no goroutine writes bytes a writer owns. Segments of any
// other size — records larger than a segment, and arenas built with
// WithSegmentBytes — stay plain makes. A slab is ordinary Go heap: it is
// collectable once every segment carved from it is unlinked and no reader
// still holds a subslice of it. Its range keeps the huge-page advice after
// the GC has freed it, so a writer's first segment and an oversized one come
// from hugemem.Small, which withdraws the advice from the range it lands in.
package arena

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dramhit/internal/hugemem"
	"dramhit/internal/simd"
)

// Ref addresses one record: segment index in bits 47:32, byte offset in bits
// 31:0. The zero Ref is valid (segment 0, offset 0) — index layers that need
// a null value must encode it outside the Ref (the bucket layout's slot word
// does: an empty slot word is all-zero, and a published word always carries a
// nonzero fingerprint above the Ref bits).
type Ref uint64

// RefBits is the width of a Ref; the bucket layout relies on it to pack a
// Ref and a fingerprint into one slot word.
const RefBits = 48

// refMask isolates a Ref inside a wider word.
const refMask = (uint64(1) << RefBits) - 1

// MakeRef packs a segment index and offset.
func MakeRef(seg uint32, off uint32) Ref {
	return Ref(uint64(seg)<<32 | uint64(off))
}

func (r Ref) seg() uint32 { return uint32(r >> 32) }
func (r Ref) off() uint32 { return uint32(r) }

// DefaultSegmentBytes is the capacity of a freshly grown segment. Large
// enough that segment turnover is rare, small enough that a mostly-dead
// segment does not strand much memory.
const DefaultSegmentBytes = 1 << 20

// maxSegments bounds the segment index to its 16 bits in the Ref.
const maxSegments = 1 << 16

// slabBytes is the size of the huge-page slabs default-sized segments are
// carved from after a writer's first.
const slabBytes = 32 << 20

// compactFloor is the dead bytes, in segments' worth, below which no
// compaction pass starts however dead the arena is: a small arena is not
// worth a walk of its index.
const compactFloor = 64

// segment is one append-only region. buf is written only by the owning
// Writer (unsynchronized bump allocation; a slab segment's first touch ends
// before the writer takes it) and read by anyone holding a Ref into it; the
// publication protocol above makes those reads race-free.
// used is the bytes appended so far as last published by the owner: at every
// 4 KiB boundary the bump pointer crosses and at seal, before sealed is set,
// so it is exact once sealed reads true. dead counts retired bytes.
type segment struct {
	buf    []byte
	used   atomic.Uint64 // bytes appended, published per page and at seal
	dead   atomic.Uint64 // bytes retired
	sealed atomic.Bool   // owner moved on; used is final
	huge   bool          // carved from a huge-page slab
	slab   *slab         // the slab it was carved from; nil: a plain make
	id     uint32        // its directory index
	// touched is done once a slab segment's background first touch has
	// finished; the writer that takes the segment waits on it.
	touched sync.WaitGroup
	// retireEpoch is the global epoch at which the segment became fully
	// dead (valid once candidate is true).
	retireEpoch uint64
	candidate   bool
	// victim marks a segment the running compaction pass empties; written
	// and read only under compactMu.
	victim bool
}

// slab is the identity of one huge-page slab, shared by the segments carved
// from it. It holds no reference to the slab's bytes.
type slab struct{ huge bool }

// Arena is the shared state: the segment directory (appended in place,
// copied when Advance unlinks segments or a freed id is reused, published by
// pointer either way), the global reclamation epoch, the pin registry and
// the indexes a compaction pass walks. One Arena serves any number of
// Writers and readers.
type Arena struct {
	segs    atomic.Pointer[[]*segment]
	epoch   atomic.Uint64
	segSize int

	mu      sync.Mutex // guards directory changes, pins, free, retired, indexes
	pins    []*Pin
	retired []*segment // fully-dead segments awaiting a safe epoch
	free    []uint32   // ids of unlinked segments, reused by newSegment
	indexes []Index
	freed   atomic.Uint64
	seals   atomic.Uint64 // segments sealed; paces the compaction check

	slabMu  sync.Mutex // guards slab, curSlab and ahead
	slab    []byte     // the current slab's uncarved tail
	curSlab *slab      // the slab being carved
	ahead   *segment   // the next slab segment, under its first touch

	compactMu sync.Mutex // held by the running pass
	cw        *Writer    // the passes' writer; under compactMu
	passes    atomic.Uint64
	moved     atomic.Uint64
	unlinked  atomic.Uint64
	chunkMax  atomic.Int64 // ns
}

// Option configures New.
type Option func(*Arena)

// WithSegmentBytes overrides the per-segment capacity (records larger than
// the capacity get a dedicated segment of exactly their size).
func WithSegmentBytes(n int) Option {
	return func(a *Arena) {
		if n > 0 {
			a.segSize = n
		}
	}
}

// New creates an empty arena.
func New(opts ...Option) *Arena {
	a := &Arena{segSize: DefaultSegmentBytes}
	for _, o := range opts {
		o(a)
	}
	empty := make([]*segment, 0)
	a.segs.Store(&empty)
	return a
}

// Segments returns (total directory slots, still-linked segments); the gap
// is the ids Advance unlinked and no new segment has reused yet (FreeIDs).
// For observability and tests.
func (a *Arena) Segments() (total, live int) {
	segs := *a.segs.Load()
	for _, s := range segs {
		if s != nil {
			live++
		}
	}
	return len(segs), live
}

// HugeBytes returns the capacity of the still-linked segments that were
// carved from huge-page slabs: the records a reader finds through a 2 MiB TLB
// entry. For observability and tests.
func (a *Arena) HugeBytes() uint64 {
	var n uint64
	for _, s := range *a.segs.Load() {
		if s != nil && s.huge {
			n += uint64(len(s.buf))
		}
	}
	return n
}

// Freed returns the number of segments unlinked so far.
func (a *Arena) Freed() uint64 { return a.freed.Load() }

// FreeIDs returns the number of unlinked segment ids waiting for reuse.
func (a *Arena) FreeIDs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}

// CompactStats counts the compaction passes run so far: the passes, the
// record bytes they moved into fresh segments, the segments the passes'
// Advances unlinked, and the longest chunk of index walk a pass ran under one
// writer gate and pin (the longest a grow waits for a pass).
type CompactStats struct {
	Passes   uint64
	Moved    uint64
	Unlinked uint64
	MaxChunk time.Duration
}

// CompactStats returns the compaction counters.
func (a *Arena) CompactStats() CompactStats {
	return CompactStats{
		Passes:   a.passes.Load(),
		Moved:    a.moved.Load(),
		Unlinked: a.unlinked.Load(),
		MaxChunk: time.Duration(a.chunkMax.Load()),
	}
}

// Pins returns the number of pins registered with the arena, writers' and
// standalone readers'. For observability and tests.
func (a *Arena) Pins() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pins)
}

// SegmentStat is one linked segment's scrape-time utilization: bytes
// appended, bytes retired (Used-Dead is the live payload), the segment's
// capacity, and whether its owner moved on (Used is final). On a segment
// still being written Used trails the bump pointer by less than 4 KiB, so
// Dead can exceed it there.
type SegmentStat struct {
	Used   uint64 `json:"used"`
	Dead   uint64 `json:"dead"`
	Cap    uint64 `json:"cap"`
	Sealed bool   `json:"sealed"`
}

// SegmentStats returns per-segment utilization for the still-linked
// segments, in directory order. Scrape-time only; the counters are atomic
// reads against live writers.
func (a *Arena) SegmentStats() []SegmentStat {
	segs := *a.segs.Load()
	out := make([]SegmentStat, 0, len(segs))
	for _, s := range segs {
		if s == nil {
			continue
		}
		out = append(out, SegmentStat{
			Used:   s.used.Load(),
			Dead:   s.dead.Load(),
			Cap:    uint64(len(s.buf)),
			Sealed: s.sealed.Load(),
		})
	}
	return out
}

// newSegment allocates a segment of at least n bytes, links it into the
// directory under a freed id if there is one, else a new one, and returns it
// with its id; ok is false, and nothing is linked, when every id is taken. A
// writer's first segment, and any segment not of the default size, is a
// plain make; the rest come from slabs.
func (a *Arena) newSegment(n int, first bool) (s *segment, id uint32, ok bool) {
	if a.full() {
		return nil, 0, false // before the allocation: a full arena stays cheap to ask
	}
	switch {
	case first || n > a.segSize:
		// Small: the heap may hand out a range a freed slab left advised
		s = &segment{buf: hugemem.Small(max(n, a.segSize))}
	case a.segSize != DefaultSegmentBytes:
		s = &segment{buf: make([]byte, a.segSize)}
	default:
		s = a.slabSegment()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.segs.Load()
	var dir []*segment
	switch {
	case len(a.free) > 0:
		// A reader may hold old, so a reused id gets a fresh directory.
		id = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		dir = append([]*segment(nil), old...)
		dir[id] = s
	case len(old) < maxSegments:
		// append may extend old's array in place: only the current directory
		// is ever appended to, and no reader of an older one indexes past its
		// length.
		id = uint32(len(old))
		dir = append(old, s)
	default:
		return nil, 0, false
	}
	s.id = id
	a.segs.Store(&dir)
	return s, id, true
}

// full reports whether every segment id is taken.
func (a *Arena) full() bool {
	if len(*a.segs.Load()) < maxSegments {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free) == 0
}

// slabSegment hands out the slab segment whose first touch was started when
// the previous one was handed out (the first call has none and returns a cold
// one), and starts the touch of the next.
func (a *Arena) slabSegment() *segment {
	a.slabMu.Lock()
	c := a.ahead
	if c == nil {
		c = a.carve()
	}
	next := a.carve()
	next.touched.Add(1)
	a.ahead = next
	a.slabMu.Unlock()
	go func() {
		for i := 0; i < len(next.buf); i += 4 << 10 {
			next.buf[i] = 0 // one write per 4 KiB page faults the whole huge page
		}
		next.touched.Done()
	}()
	c.touched.Wait()
	return c
}

// carve cuts the next default-sized segment from the current slab, allocating
// a fresh slab when it is used up. The caller holds slabMu.
func (a *Arena) carve() *segment {
	if len(a.slab) < DefaultSegmentBytes {
		a.curSlab = new(slab)
		a.slab, a.curSlab.huge = hugemem.Bytes(slabBytes)
	}
	c := &segment{buf: a.slab[:DefaultSegmentBytes:DefaultSegmentBytes], huge: a.curSlab.huge, slab: a.curSlab}
	a.slab = a.slab[DefaultSegmentBytes:]
	return c
}

// Writer is a single-goroutine appender owning the tail of one segment. It
// doubles as the goroutine's reclamation pin: Enter/Exit bracket every
// record access made outside the index's own synchronization.
type Writer struct {
	Pin
	a   *Arena
	seg *segment
	id  uint32
	off uint32
}

// NewWriter creates a writer (and registers its pin). Writers are not safe
// for concurrent use; create one per worker goroutine.
func (a *Arena) NewWriter() *Writer {
	w := &Writer{a: a}
	a.mu.Lock()
	a.pins = append(a.pins, &w.Pin)
	a.mu.Unlock()
	return w
}

// Arena returns the arena this writer appends to.
func (w *Writer) Arena() *Arena { return w.a }

// recordSize returns the encoded size of a (key, value) record.
func recordSize(klen, vlen int) int {
	return uvarintLen(uint64(klen)) + uvarintLen(uint64(vlen)) + klen + vlen
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// pageBytes is the stride at which Append publishes a segment's used count.
const pageBytes = 4 << 10

// tailAhead is how far past the bump pointer Append prefetches: four lines,
// enough to cover the next few records, which a segment first-touched on
// another CPU would otherwise bring in one store miss at a time.
const tailAhead = 4 * lineBytes

// Append is TryAppend for callers that cannot take a refusal: it panics when
// the segment directory is full.
func (w *Writer) Append(key, value []byte) Ref {
	ref, ok := w.TryAppend(key, value)
	if !ok {
		panic("arena: segment directory full")
	}
	return ref
}

// TryAppend writes one record and returns its Ref, or reports false when the
// record needs a new segment and the segment directory is full; the writer is
// then unchanged, and a later record that fits its open segment still
// succeeds. The record is not yet visible to readers — the caller publishes
// the Ref through an atomic store or CAS on an index word, which is the
// release edge readers synchronize on.
//
// Each record that moves the bump pointer onto a new cache line prefetches the
// line tailAhead bytes past it, when that line is inside the segment, so the
// next records' stores hit; the segment's used count is stored only when the
// bump pointer crosses a page boundary (see the package doc).
func (w *Writer) TryAppend(key, value []byte) (Ref, bool) {
	n := recordSize(len(key), len(value))
	if w.seg == nil || int(w.off)+n > len(w.seg.buf) {
		seg, id, ok := w.a.newSegment(n, w.seg == nil)
		if !ok {
			return 0, false
		}
		if w.seg != nil {
			w.seg.used.Store(uint64(w.off))
			w.seg.sealed.Store(true)
			w.a.maybeRetire(w.seg)
			if w.a.sealDue() {
				w.a.startPass()
			}
		}
		w.seg, w.id, w.off = seg, id, 0
	}
	buf := w.seg.buf[w.off:]
	p := binary.PutUvarint(buf, uint64(len(key)))
	p += binary.PutUvarint(buf[p:], uint64(len(value)))
	copy(buf[p:], key)
	copy(buf[p+len(key):], value)
	ref := MakeRef(w.id, w.off)
	old := w.off
	w.off += uint32(n)
	if old/lineBytes != w.off/lineBytes {
		if ahead := int(w.off) + tailAhead; ahead < len(w.seg.buf) {
			simd.Prefetch(unsafe.Pointer(&w.seg.buf[ahead]))
		}
		if old/pageBytes != w.off/pageBytes {
			w.seg.used.Store(uint64(w.off))
		}
	}
	return ref, true
}

// Record resolves ref to its key and value subslices with zero copies and
// zero allocation. The caller must hold the happens-before edge on ref (an
// atomic load of the index word that published it) and, if the access can
// outlive the index entry, a pin.
func (a *Arena) Record(ref Ref) (key, value []byte) {
	seg := (*a.segs.Load())[ref.seg()]
	buf := seg.buf[ref.off():]
	klen, p := binary.Uvarint(buf)
	vlen, q := binary.Uvarint(buf[p:])
	p += q
	return buf[p : p+int(klen) : p+int(klen)], buf[p+int(klen) : p+int(klen)+int(vlen) : p+int(klen)+int(vlen)]
}

// Key resolves only the key bytes of ref (same contract as Record).
func (a *Arena) Key(ref Ref) []byte {
	k, _ := a.Record(ref)
	return k
}

// lineBytes is the cache-line size RecordAddr measures a record's span against.
const lineBytes = 64

// RecordAddr returns the address of ref's first byte and — when a record of
// span bytes starting there would reach it and it starts inside the segment —
// of the cache line after it (else nil), for prefetching only: the caller must
// not load through either. Because nothing is dereferenced it needs neither a
// pin nor the happens-before edge Record asks for, and it accepts any bit
// pattern as ref — a segment index past the directory, an unlinked segment or
// an offset past the segment's end yields nil, nil.
func (a *Arena) RecordAddr(ref Ref, span int) (first, next unsafe.Pointer) {
	segs := *a.segs.Load()
	if int(ref.seg()) >= len(segs) {
		return nil, nil
	}
	seg := segs[ref.seg()]
	off := int(ref.off())
	if seg == nil || off >= len(seg.buf) {
		return nil, nil
	}
	first = unsafe.Pointer(&seg.buf[off])
	// Measured on the address: records are packed back to back, so one starts
	// anywhere in its line whatever the segment's own alignment.
	if toNext := lineBytes - int(uintptr(first)&(lineBytes-1)); span > toNext && off+toNext < len(seg.buf) {
		next = unsafe.Pointer(&seg.buf[off+toNext])
	}
	return first, next
}

// Retire marks ref's record dead (superseded or deleted). When the owning
// segment's bytes are all dead and its writer has moved on, the segment is
// stamped with the current epoch and queued for reclamation at a safe
// Advance.
func (a *Arena) Retire(ref Ref) { a.retire(ref) }

// retire is Retire, returning the record's size.
func (a *Arena) retire(ref Ref) uint64 {
	seg := (*a.segs.Load())[ref.seg()]
	buf := seg.buf[ref.off():]
	klen, p := binary.Uvarint(buf)
	vlen, q := binary.Uvarint(buf[p:])
	n := uint64(p+q) + klen + vlen
	// sealed before used: only a sealed segment's used is final.
	if dead := seg.dead.Add(n); seg.sealed.Load() && dead >= seg.used.Load() {
		a.maybeRetire(seg)
	}
	return n
}

// maybeRetire queues seg for reclamation if it is sealed and fully dead. It
// loads sealed before used, as Retire does.
func (a *Arena) maybeRetire(seg *segment) {
	if !seg.sealed.Load() || seg.dead.Load() < seg.used.Load() {
		return
	}
	a.mu.Lock()
	if !seg.candidate {
		seg.candidate = true
		seg.retireEpoch = a.epoch.Load()
		a.retired = append(a.retired, seg)
	}
	a.mu.Unlock()
}

// Advance steps the reclamation epoch and unlinks every retired segment no
// pin can still reach: a segment retired at epoch e is freed once the global
// epoch has passed e and no pin is parked at an epoch ≤ e. Its id goes on the
// free list. The bucket table calls this when a migration completes and a
// compaction pass at its end; callers may also invoke it periodically.
// Returns the number of segments unlinked.
func (a *Arena) Advance() int {
	e := a.epoch.Add(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	minPinned := uint64(math.MaxUint64)
	for _, p := range a.pins {
		if ep := p.epoch.Load(); ep != 0 && ep-1 < minPinned {
			minPinned = ep - 1
		}
	}
	kept := a.retired[:0]
	var dir []*segment
	n := 0
	for _, seg := range a.retired {
		// Safe once the epoch has stepped past the retire stamp AND no pin
		// predates it: any reader that could hold a Ref into seg pinned an
		// epoch ≤ retireEpoch (later pins load the index after the Refs were
		// all superseded — Retire happens-before the epoch step).
		if e > seg.retireEpoch && minPinned > seg.retireEpoch {
			if dir == nil {
				dir = append([]*segment(nil), *a.segs.Load()...)
			}
			dir[seg.id] = nil
			a.free = append(a.free, seg.id)
			n++
			continue
		}
		kept = append(kept, seg)
	}
	// The tail past kept still points at the unlinked segments: clear it, or
	// the GC keeps them, and their slabs, reachable.
	clear(a.retired[len(kept):])
	a.retired = kept
	if n > 0 {
		a.segs.Store(&dir)
		a.freed.Add(uint64(n))
	}
	return n
}

// Pin is one reader's reclamation guard: a padded epoch slot. A zero epoch
// means "not pinned"; a pinned reader stores current-epoch+1. Writers embed
// one; standalone readers obtain one with NewPin.
type Pin struct {
	epoch atomic.Uint64
	_     [7]uint64 // pad to a cache line: pins are per-goroutine hot
}

// NewPin registers a standalone reader pin.
func (a *Arena) NewPin() *Pin {
	p := &Pin{}
	a.mu.Lock()
	a.pins = append(a.pins, p)
	a.mu.Unlock()
	return p
}

// Enter pins the current epoch. Cheap: one load and one store on the pin's
// own cache line; no shared-line RMW.
func (p *Pin) Enter(a *Arena) {
	p.epoch.Store(a.epoch.Load() + 1)
}

// Exit releases the pin.
func (p *Pin) Exit() {
	p.epoch.Store(0)
}
