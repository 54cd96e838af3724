package obs

import (
	"sync/atomic"
	"time"
)

// EventKind labels one step of a sampled request's lifecycle.
type EventKind uint8

// Lifecycle events in pipeline order. A sampled request emits Submit when
// it enters a handle's prefetch queue, Probe each time the drain takes it
// up over its resident line pair, Reprobe each time it leaves the pair
// (re-enqueued behind a fresh prefetch), and Complete when it finishes. Resize events (emitted by
// the growing table, not per-request) share the ring: one event per
// migration phase, with the phase code in Op and progress in Arg.
const (
	EvSubmit EventKind = iota + 1
	EvProbe
	EvReprobe
	EvComplete
	EvResize
)

// Resize-phase codes carried in Event.Op for EvResize events (the Op field
// is a request opcode for lifecycle events; resize events are not requests,
// so the field is reused for the migration phase).
const (
	// ResizeInstall marks the successor table's installation; Arg is the
	// migration's total chunk count.
	ResizeInstall uint8 = iota
	// ResizeChunk marks one migrated chunk; Key is the chunk index, Arg is
	// completed-chunk progress in permille.
	ResizeChunk
	// ResizeSwap marks the completed swap to the successor generation.
	ResizeSwap
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvProbe:
		return "probe"
	case EvReprobe:
		return "reprobe"
	case EvComplete:
		return "complete"
	case EvResize:
		return "resize"
	}
	return "invalid"
}

// Event is one decoded trace entry.
type Event struct {
	// ID is the request's trace identifier (assigned at submit; all of one
	// request's events share it).
	ID uint64 `json:"id"`
	// Key is the request's key.
	Key uint64 `json:"key"`
	// TS is the event's wall-clock timestamp in nanoseconds.
	TS int64 `json:"ts_ns"`
	// Kind is the lifecycle step.
	Kind EventKind `json:"kind"`
	// Op is the request's operation code (table.Op).
	Op uint8 `json:"op"`
	// Arg carries a per-kind detail: probes so far (Probe, Reprobe), hit
	// flag (Complete).
	Arg uint32 `json:"arg"`
}

// traceSlot is one ring entry stored as four independently-atomic words so
// writers never take a lock and concurrent scrapes are race-free. A scrape
// that overlaps a wrap can observe one slot with fields from two events
// (each field individually valid); that bounded tearing is the price of a
// lock-free sampled diagnostic and is acceptable there.
type traceSlot struct {
	id   atomic.Uint64
	key  atomic.Uint64
	ts   atomic.Uint64
	meta atomic.Uint64 // kind | op<<8 | arg<<16
}

// TraceRing is the fixed-capacity lifecycle event ring: writers claim slots
// with one atomic fetch-add, memory is bounded at capacity events, and the
// record path allocates nothing.
type TraceRing struct {
	mask  uint64
	pos   atomic.Uint64 // next slot (total events recorded)
	ids   atomic.Uint64 // trace-id allocator
	slots []traceSlot
}

// NewTraceRing creates a ring holding capacity events (rounded up to a
// power of two, minimum 64).
func NewTraceRing(capacity int) *TraceRing {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &TraceRing{mask: uint64(n - 1), slots: make([]traceSlot, n)}
}

// Cap returns the ring capacity in events.
func (t *TraceRing) Cap() int { return len(t.slots) }

// Recorded returns the total number of events recorded (not retained).
func (t *TraceRing) Recorded() uint64 { return t.pos.Load() }

// NextID allocates a fresh nonzero trace identifier.
func (t *TraceRing) NextID() uint64 { return t.ids.Add(1) }

// Record appends one event. Safe for concurrent use; allocation-free.
func (t *TraceRing) Record(id uint64, kind EventKind, op uint8, key uint64, arg uint32) {
	s := &t.slots[(t.pos.Add(1)-1)&t.mask]
	s.id.Store(id)
	s.key.Store(key)
	s.ts.Store(uint64(time.Now().UnixNano()))
	s.meta.Store(uint64(kind) | uint64(op)<<8 | uint64(arg)<<16)
}

// Snapshot decodes the retained events oldest-first. Unwritten slots (ring
// not yet full) are skipped.
func (t *TraceRing) Snapshot() []Event {
	n := uint64(len(t.slots))
	end := t.pos.Load()
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]Event, 0, end-start)
	for p := start; p < end; p++ {
		s := &t.slots[p&t.mask]
		meta := s.meta.Load()
		if meta == 0 {
			continue
		}
		out = append(out, Event{
			ID:   s.id.Load(),
			Key:  s.key.Load(),
			TS:   int64(s.ts.Load()),
			Kind: EventKind(meta & 0xff),
			Op:   uint8(meta >> 8),
			Arg:  uint32(meta >> 16),
		})
	}
	return out
}
