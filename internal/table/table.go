// Package table defines the types shared by every hash-table implementation
// in this repository: operation codes, the batched asynchronous
// request/response records of the DRAMHiT interface (§3.1 of the paper), and
// the reserved key values used by the open-addressing layout.
package table

import "fmt"

// Op identifies a hash-table operation.
type Op uint8

// Supported operations (paper §3 "Operations").
const (
	// Get looks up a key and produces a response.
	Get Op = iota
	// Put inserts a key/value pair, silently overwriting an existing value.
	Put
	// Upsert inserts the value if the key is absent, otherwise atomically
	// adds the request value to the stored value (the k-mer counting
	// primitive).
	Upsert
	// Delete marks the key's slot as a tombstone. The slot is not freed;
	// space is reclaimed only on resize, exactly as in the paper.
	Delete
)

// String implements fmt.Stringer for diagnostics.
func (o Op) String() string {
	switch o {
	case Get:
		return "get"
	case Put:
		return "put"
	case Upsert:
		return "upsert"
	case Delete:
		return "delete"
	}
	return "invalid"
}

// Request is one element of a submitted batch. ID is an opaque caller-chosen
// identifier returned with the response so that out-of-order completions can
// be matched to their requests (paper §3.1 "Asynchronous interface").
type Request struct {
	Op    Op
	Key   uint64
	Value uint64
	ID    uint64
}

// Response is one element of a completed batch.
type Response struct {
	// ID echoes the request identifier.
	ID uint64
	// Value is the value found (Get) or the value after update (Upsert).
	Value uint64
	// Found reports whether the key was present (Get/Delete) or whether an
	// Upsert updated an existing entry rather than inserting.
	Found bool
}

// Reserved key values. The tables use three values from the key space to
// mark empty, deleted, and migrated slots; clients may still store these
// keys — the tables transparently redirect them to dedicated side slots
// (paper §3 "Atomicity": "To restore the key space, we use two dedicated
// memory locations"; the third, MovedKey, is this repository's addition for
// growt's incremental migration).
const (
	EmptyKey     uint64 = 0
	TombstoneKey uint64 = ^uint64(0)
	// MovedKey marks an old-generation slot whose entry has been migrated to
	// the successor table during an incremental resize (internal/growt).
	// Like TombstoneKey it is a terminal key-word state: a slot transitions
	// key → MovedKey exactly once and is never reused, so the unsynchronized
	// read path stays linearizable through a migration window.
	MovedKey uint64 = ^uint64(0) - 1
)

// IsReservedKey reports whether key is one of the three reserved key values
// that probe loops treat specially and side slots absorb for clients.
func IsReservedKey(key uint64) bool {
	return key == EmptyKey || key == TombstoneKey || key == MovedKey
}

// Layout selects the physical slot layout of a table. The zero value is
// LayoutFlat — the original interleaved key/value array, four slots to a
// line — so existing configurations are bit-identical. LayoutBucket
// switches to the one-line bucket layout: 64-byte buckets whose first word
// is in-cell metadata (7 fingerprint bytes + a publish bitmap) over 7 slot
// words referencing a log-structured arena, which keeps a lookup to one line
// and unlocks variable-length []byte keys and values (the GetBytes/PutBytes
// API).
type Layout uint8

const (
	// LayoutFlat is the interleaved uint64 key/value array (slotarr.Array).
	LayoutFlat Layout = iota
	// LayoutBucket is the bucketized cell-metadata layout over the KV arena
	// (slotarr.BucketTable).
	LayoutBucket
)

// String implements fmt.Stringer for benchmark labels.
func (l Layout) String() string {
	switch l {
	case LayoutFlat:
		return "flat"
	case LayoutBucket:
		return "bucket"
	}
	return "invalid"
}

// GovernorMode selects a flat table's execution mode, fixed when the table
// is built: the prefetch pipeline or direct mode. The zero value is
// GovernorOff, which leaves the choice to the table.
type GovernorMode uint8

const (
	// GovernorOff names no mode: dramhit.New runs direct mode when the slot
	// array is at most 4 MiB and the prefetch pipeline (the paper's
	// execution model) otherwise; a view (dramhit.NewView, DRAMHiT-P)
	// runs the pipeline.
	GovernorOff GovernorMode = iota
	// GovernorDirect forces direct mode at any size: Submit bypasses the ring
	// and executes a folklore-style synchronous probe inline, the right
	// execution for a cache-resident table.
	GovernorDirect
)

// String implements fmt.Stringer for benchmark labels.
func (m GovernorMode) String() string {
	switch m {
	case GovernorOff:
		return "off"
	case GovernorDirect:
		return "direct"
	}
	return "invalid"
}

// ParseGovernor maps a benchmark-flag string back to a governor mode.
func ParseGovernor(s string) (GovernorMode, error) {
	switch s {
	case "", "off":
		return GovernorOff, nil
	case "direct":
		return GovernorDirect, nil
	}
	return 0, fmt.Errorf("unknown governor mode %q (want off|direct)", s)
}

// TagOf derives a key's 1-byte tag fingerprint from its full 64-bit hash,
// which the bucket layout stores in-cell. Fastrange consumes the hash's HIGH
// bits for the slot index (the high 64 of the 128-bit product dominate), so
// the tag takes the LOW byte —
// the bits the index reduction leaves untouched — exactly as the simulator's
// fingerprint does; deriving both index and tag from the same bits would
// alias every key sharing a home slot. Zero is reserved: a tag is always in
// 1..255, so a zero byte can mean "no fingerprint here".
func TagOf(h uint64) uint8 {
	t := uint8(h)
	if t == 0 {
		t = 1
	}
	return t
}

// SlotsPerCacheLine is the number of 16-byte key/value slots in one 64-byte
// cache line; reprobes that stay within a line cost no extra memory
// transaction, which is why linear probing averages only 1.3 line accesses
// per op at 75% fill.
const SlotsPerCacheLine = 4

// CacheLineBytes is the transfer unit of the memory subsystem.
const CacheLineBytes = 64

// Map is the minimal synchronous hash-table interface of the Folklore
// baseline and growt's resizable table, and the one the conformance test
// suite runs. DRAMHiT itself exposes the batched interface, with a
// synchronous adapter for tests.
type Map interface {
	// Get returns the value stored for key and whether it was present.
	Get(key uint64) (uint64, bool)
	// Put stores value for key, overwriting silently. It returns false only
	// if the table is full.
	Put(key, value uint64) bool
	// Upsert adds delta to the value for key, inserting delta if absent.
	// It returns the resulting value and false only if the table is full.
	Upsert(key, delta uint64) (uint64, bool)
	// Delete removes key, returning whether it was present.
	Delete(key uint64) bool
	// Len returns the number of live (non-deleted) entries.
	Len() int
	// Cap returns the number of slots.
	Cap() int
}
