package dramhit

import (
	"runtime"
	"sync/atomic"

	"dramhit/internal/hashfn"
	"dramhit/internal/table"
)

// BigTable implements the paper's second atomicity protocol (§3
// "Atomicity"): for key/value tuples larger than 16 bytes, a 32-bit version
// accompanies each tuple. A writer makes the version odd before mutating the
// value bytes and even again after; readers wait out odd versions and retry
// if the version changed across their copy, so a multi-cache-line read is
// never torn. Keys remain 8 bytes (published with a CAS claim as in the main
// table); values are fixed-size byte blocks chosen at construction.
type BigTable struct {
	keys     []uint64
	versions []atomic.Uint32
	// values holds ceil(vsize/8) words per slot. Individual words are
	// accessed atomically so the seqlock's optimistic reads are data-race
	// free under the Go memory model (a hardware seqlock reads the bytes
	// plainly and discards torn copies; Go's race detector would flag the
	// discarded read, so each word load is atomic and the version still
	// provides cross-word atomicity).
	values []uint64
	words  int
	vsize  int
	size   uint64
	hash   func(uint64) uint64
	live   atomic.Int64
}

// NewBigTable creates a table of n slots with vsize-byte values (vsize > 0;
// intended for vsize > 8, where the single-word protocol no longer applies).
func NewBigTable(n uint64, vsize int) *BigTable {
	if n == 0 || vsize <= 0 {
		panic("dramhit: NewBigTable requires positive slots and value size")
	}
	words := (vsize + 7) / 8
	return &BigTable{
		keys:     make([]uint64, n),
		versions: make([]atomic.Uint32, n),
		values:   make([]uint64, int(n)*words),
		words:    words,
		vsize:    vsize,
		size:     n,
		hash:     hashfn.City64,
	}
}

// ValueSize returns the fixed value size in bytes.
func (t *BigTable) ValueSize() int { return t.vsize }

// Len returns the number of live entries.
func (t *BigTable) Len() int { return int(t.live.Load()) }

// Cap returns the slot count.
func (t *BigTable) Cap() int { return int(t.size) }

// storeVal writes value into slot i's words with atomic stores (caller
// holds the slot's version lock).
func (t *BigTable) storeVal(i uint64, value []byte) {
	off := int(i) * t.words
	for w := 0; w < t.words; w++ {
		var chunk [8]byte
		copy(chunk[:], value[w*8:min(len(value), w*8+8)])
		atomic.StoreUint64(&t.values[off+w], leUint64(chunk[:]))
	}
}

// loadVal copies slot i's words into dst with atomic loads.
func (t *BigTable) loadVal(i uint64, dst []byte) {
	off := int(i) * t.words
	for w := 0; w < t.words; w++ {
		var chunk [8]byte
		lePutUint64(chunk[:], atomic.LoadUint64(&t.values[off+w]))
		copy(dst[w*8:min(len(dst), w*8+8)], chunk[:])
	}
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func lePutUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func (t *BigTable) keyAt(i uint64) uint64 {
	return atomic.LoadUint64(&t.keys[i])
}

// lockSlot transitions the slot's version from even to odd, spinning past a
// concurrent writer.
func (t *BigTable) lockSlot(i uint64) uint32 {
	v := &t.versions[i]
	for spins := 0; ; spins++ {
		cur := v.Load()
		if cur&1 == 0 && v.CompareAndSwap(cur, cur+1) {
			return cur + 1
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

func (t *BigTable) unlockSlot(i uint64, odd uint32) {
	t.versions[i].Store(odd + 1)
}

// Put stores value (length must equal ValueSize) under key, returning false
// only if the table is full. The reserved key values (EmptyKey,
// TombstoneKey, MovedKey) are not supported by BigTable (it keeps the
// protocol exposition focused; wrap keys if you need the full space).
func (t *BigTable) Put(key uint64, value []byte) bool {
	if len(value) != t.vsize {
		panic("dramhit: BigTable.Put value size mismatch")
	}
	if table.IsReservedKey(key) {
		panic("dramhit: BigTable does not support reserved keys")
	}
	i := hashfn.Fastrange(t.hash(key), t.size)
	// probes counts slots moved past, never re-inspections of one slot: a
	// waiter spinning on a preempted lock holder must not spend its probe
	// budget there and report a full table.
	for probes := uint64(0); probes < t.size; {
		switch k := t.keyAt(i); k {
		case key:
			odd := t.lockSlot(i)
			t.storeVal(i, value)
			t.unlockSlot(i, odd)
			return true
		case table.EmptyKey:
			// Claim order matters: take the version lock FIRST, then
			// publish the key, so a reader that sees the key either sees an
			// odd version (waits) or sees the completed value. Key words
			// only change under the version lock, which makes the re-check
			// below sound.
			cur := t.versions[i].Load()
			if cur&1 == 1 || !t.versions[i].CompareAndSwap(cur, cur+1) {
				// A writer is mid-flight on this slot; re-inspect it.
				runtime.Gosched()
				continue
			}
			if t.keyAt(i) != table.EmptyKey {
				// Someone claimed this slot before we locked; release the
				// lock untouched and re-inspect.
				t.versions[i].Store(cur + 2)
				continue
			}
			t.storeVal(i, value)
			atomic.StoreUint64(&t.keys[i], key)
			t.versions[i].Store(cur + 2)
			t.live.Add(1)
			return true
		}
		probes++
		i++
		if i == t.size {
			i = 0
		}
	}
	return false
}

// Get copies the value for key into dst (length ValueSize) and reports
// presence. The read is atomic with respect to concurrent Puts: the version
// is compared before and after the copy and the copy retried on change.
func (t *BigTable) Get(key uint64, dst []byte) bool {
	if len(dst) != t.vsize {
		panic("dramhit: BigTable.Get dst size mismatch")
	}
	i := hashfn.Fastrange(t.hash(key), t.size)
	for probes := uint64(0); probes < t.size; probes++ {
		switch k := t.keyAt(i); k {
		case key:
			for spins := 0; ; spins++ {
				before := t.versions[i].Load()
				if before&1 == 1 {
					// In-progress update; wait for it to land.
					if spins > 64 {
						runtime.Gosched()
					}
					continue
				}
				t.loadVal(i, dst)
				if t.versions[i].Load() == before {
					return true
				}
				// Changed under us: retry the copy.
			}
		case table.EmptyKey:
			return false
		}
		i++
		if i == t.size {
			i = 0
		}
	}
	return false
}

// Delete tombstones the key.
func (t *BigTable) Delete(key uint64) bool {
	i := hashfn.Fastrange(t.hash(key), t.size)
	for probes := uint64(0); probes < t.size; probes++ {
		switch k := t.keyAt(i); k {
		case key:
			if atomic.CompareAndSwapUint64(&t.keys[i], key, table.TombstoneKey) {
				t.live.Add(-1)
				return true
			}
			return false
		case table.EmptyKey:
			return false
		}
		i++
		if i == t.size {
			i = 0
		}
	}
	return false
}
