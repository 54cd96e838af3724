package slotarr

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"dramhit/internal/arena"
	"dramhit/internal/hashfn"
	"dramhit/internal/hugemem"
	"dramhit/internal/simd"
	"dramhit/internal/table"
)

// BucketTable is the concurrent engine over the bucket layout (bucket.go):
// an array of one-line buckets indexing variable-length key/value records
// in a log-structured arena. It is the storage the dramhit front ends run
// on when Config.Layout is LayoutBucket, and it carries the byte-string
// API (GetBytes/PutBytes) the flat layout cannot.
//
// Concurrency model:
//
//   - Readers are lock-free. A Get loads the state pointer once, loads the
//     bucket's meta word, SWAR-matches the fingerprint bytes
//     (simd.BucketCandidates7), and resolves only candidate lanes — one
//     cache line for the whole bucket, plus stash hops on overflow.
//     Readers pin the arena epoch around record resolution so a
//     concurrently reclaimed segment cannot be unlinked under them.
//
//   - Writers take a read-lock on one of the striped gates (keyed by the
//     key's hash, so racing writers of the same key share a stripe only
//     incidentally — correctness never depends on it). Inside the gate
//     every mutation is CAS-based and the gate is only there to let the
//     resizer quiesce writers by write-locking every stripe.
//
//   - Duplicate-insert races are resolved structurally: an inserter (1)
//     checks every claimed lane and the stash chain for its key, (2)
//     targets the LOWEST free lane it observed, and (3) restarts the whole
//     operation on any CAS failure. Lanes are monotone (empty →
//     published → tombstone, never back), so two inserters of the same key
//     must collide on a CAS: if both observed the same free-lane set they
//     target the same lane; if one observed a lane the other found free,
//     the ordering of those observations forces one CAS to fail. The
//     lane-versus-stash case reduces to the same argument — reaching the
//     stash requires observing all seven lanes claimed, which
//     happens-after the other inserter's lane claim, so the stash inserter
//     finds the duplicate during its mandatory scan. Stash-versus-stash
//     duplicates collide on the head-prepend CAS. Tombstoned stash nodes
//     are never reused for the same reason fingerprint bytes are
//     write-once: two inserters reviving different dead nodes would both
//     succeed.
//
//   - Resize (grow) is an index-only stop-the-writers copy: it
//     write-locks all gates, rebuilds the bucket array — moving 8-byte
//     slot words, never record bytes, and dropping tombstones — and swaps
//     the state pointer. Readers continue on the old state throughout and
//     linearize before any post-swap write. Migration completion steps the
//     arena's reclamation epoch (arena.Advance), the hook that lets
//     fully-dead segments from pre-resize churn be unlinked.
type BucketTable struct {
	hash    func([]byte) uint64
	ar      *arena.Arena
	state   atomic.Pointer[bucketState]
	gates   [bucketGateStripes]sync.RWMutex
	growMu  sync.Mutex
	maxLoad float64
	live    atomic.Int64
	grows   atomic.Uint64
}

// bucketGateStripes is the number of writer-gate stripes. Any function of
// the key hash may pick a stripe; resize takes all of them.
const bucketGateStripes = 64

// bucketState is one immutable-size generation of the index. claimed
// counts lanes and stash nodes ever claimed in this generation (tombstones
// included — they consume space until the next rebuild); stashed counts
// stash nodes linked.
type bucketState struct {
	words   []uint64
	stash   []atomic.Pointer[stashNode]
	nb      uint64
	claimed atomic.Int64
	stashed atomic.Int64
}

func newBucketState(nb uint64) *bucketState {
	return &bucketState{
		words: hugemem.Uint64s(int(nb*BucketWords), nil),
		stash: make([]atomic.Pointer[stashNode], nb),
		nb:    nb,
	}
}

// BucketConfig configures NewBucketTable. The zero value of every field
// has a usable default.
type BucketConfig struct {
	// Buckets is the initial bucket count (7 payload lanes each).
	Buckets uint64
	// Arena is the record store; one arena may back several tables
	// (dramhitp shares one across partitions). Default: a private arena.
	Arena *arena.Arena
	// MaxLoad is the claimed-lane fraction that triggers a grow. The
	// default 0.95 deliberately sits above the 90% fill the layout is
	// benchmarked at, so high-fill operation measures the stash, not the
	// resizer. Values above 1 disable growth entirely (fixed-size
	// benchmarks; the stash absorbs all overflow).
	MaxLoad float64
}

// NewBucketTable creates an empty table.
func NewBucketTable(cfg BucketConfig) *BucketTable {
	nb := cfg.Buckets
	if nb == 0 {
		nb = 1
	}
	ar := cfg.Arena
	if ar == nil {
		ar = arena.New()
	}
	ml := cfg.MaxLoad
	if ml <= 0 {
		ml = 0.95
	}
	t := &BucketTable{hash: hashfn.Bytes64, ar: ar, maxLoad: ml}
	t.state.Store(newBucketState(nb))
	return t
}

// NewBucketTableSlots sizes a default table for at least slots payload
// lanes, mirroring the flat layout's slot-count constructors.
func NewBucketTableSlots(slots uint64) *BucketTable {
	return NewBucketTable(BucketConfig{Buckets: (slots + BucketLanes - 1) / BucketLanes})
}

// Len returns the number of live entries.
func (t *BucketTable) Len() int { return int(t.live.Load()) }

// Cap returns the current payload-lane count (stash capacity is unbounded
// and excluded).
func (t *BucketTable) Cap() int { return int(t.state.Load().nb) * BucketLanes }

// Buckets returns the current bucket count.
func (t *BucketTable) Buckets() uint64 { return t.state.Load().nb }

// Grows returns how many times the table has rebuilt its index.
func (t *BucketTable) Grows() uint64 { return t.grows.Load() }

// Stashed returns the stash nodes linked in the current generation.
func (t *BucketTable) Stashed() int64 { return t.state.Load().stashed.Load() }

// Claimed returns lanes+stash nodes claimed in the current generation.
func (t *BucketTable) Claimed() int64 { return t.state.Load().claimed.Load() }

// Arena returns the backing record store.
func (t *BucketTable) Arena() *arena.Arena { return t.ar }

// HashOf returns the table's hash of key (the front ends use it to derive
// the prefetch target before the operation runs).
func (t *BucketTable) HashOf(key []byte) uint64 { return t.hash(key) }

// ScanBuckets walks the current index generation for scrape-time
// introspection (the /heatmap collectors). For every bucket it invokes
// bucket (if non-nil) with the lane occupancy — live and tombstoned lane
// counts — and the stash chain's shape: live nodes and total nodes walked
// (tombstones included, since a reader traverses them too). For every live
// record it invokes record (if non-nil) with the number of index loads a
// reader performs to reach it: 1 for a lane hit (the one-line probe), 1+n
// for the n-th node of the stash chain (bucket line plus n node hops).
// The walk reads live state with atomic loads and tolerates concurrent
// mutation; counts are a consistent-enough snapshot, like the trace ring.
func (t *BucketTable) ScanBuckets(
	bucket func(bi uint64, liveLanes, tombLanes, stashLive, stashLen int),
	record func(bi uint64, loads int),
) {
	st := t.state.Load()
	for bi := uint64(0); bi < st.nb; bi++ {
		b := bi * BucketWords
		var live, tomb int
		for lane := 0; lane < BucketLanes; lane++ {
			switch w := atomic.LoadUint64(&st.words[b+uint64(lane)+1]); w {
			case 0:
			case slotTombstone:
				tomb++
			default:
				live++
				if record != nil {
					record(bi, 1)
				}
			}
		}
		var stashLive, stashLen int
		for n := st.stash[bi].Load(); n != nil; n = n.next {
			stashLen++
			if w := n.word.Load(); w != 0 && w != slotTombstone {
				stashLive++
				if record != nil {
					record(bi, 1+stashLen)
				}
			}
		}
		if bucket != nil {
			bucket(bi, live, tomb, stashLive, stashLen)
		}
	}
}

// Prefetch issues a hardware prefetch for hash hv's bucket line on the
// current state — stage one of the front ends' two-stage prefetch. It reads
// no table word.
func (t *BucketTable) Prefetch(hv uint64) {
	st := t.state.Load()
	simd.Prefetch(unsafe.Pointer(&st.words[hashfn.Fastrange(hv, st.nb)*BucketWords]))
}

// SpanUnknown is the span PrefetchRecords is given for records of unknown
// length: it always covers the line after the header line.
const SpanUnknown = 65

// PrefetchRecords is stage two: a bucket probe is two dependent misses, the
// bucket line and then the arena record each candidate lane's key is compared
// against, so once Prefetch has made the line resident (the front ends wait
// half a window) this reads the meta word, fingerprint-matches it exactly as
// Get does, and prefetches every candidate lane's record: its header line
// and, when a record of span bytes would extend into it, the line after (where
// a value copy would otherwise miss; same page, so no extra page walk). Stash
// chains are not followed. It is a hint end to end: a lane that is empty,
// tombstoned or mid-publish fails the slot-word fingerprint check and is
// skipped, a record overwritten after this call is simply fetched on demand by
// the probe, and after a concurrent grow swapped the state the meta load
// misses instead of hitting. No record byte is read (arena.RecordAddr only
// forms addresses), so it needs no pin and no writer gate.
func (t *BucketTable) PrefetchRecords(hv uint64, span int) {
	st := t.state.Load()
	b := hashfn.Fastrange(hv, st.nb) * BucketWords
	fp := table.TagOf(hv)
	for m := simd.BucketCandidates7(atomic.LoadUint64(&st.words[b]), fp); m != 0; m &= m - 1 {
		w := atomic.LoadUint64(&st.words[b+uint64(bits.TrailingZeros8(m))+1])
		if slotFP(w) == uint16(fp) {
			first, next := t.ar.RecordAddr(slotRef(w), span)
			simd.Prefetch(first)
			if next != nil {
				simd.Prefetch(next)
			}
		}
	}
}

// BucketHandle is a per-goroutine view: it owns an arena Writer (whose
// embedded Pin doubles as the goroutine's reclamation guard) and local,
// unsynchronized probe counters.
type BucketHandle struct {
	t *BucketTable
	w *arena.Writer
	// Lines counts bucket cache-line loads (one per probe attempt,
	// including CAS-failure retries); Hops counts stash-node visits. Both
	// are single-goroutine, like the handle.
	Lines uint64
	Hops  uint64
}

// NewHandle creates a handle. Handles are not safe for concurrent use;
// create one per worker goroutine.
func (t *BucketTable) NewHandle() *BucketHandle {
	return &BucketHandle{t: t, w: t.ar.NewWriter()}
}

// Get returns the value bytes stored for key. The returned slice aliases
// the arena record — valid indefinitely (the garbage collector keeps
// reclaimed segments alive while referenced) but stale once the key is
// overwritten. Zero-allocation.
func (h *BucketHandle) Get(key []byte) ([]byte, bool) {
	return h.GetHashed(h.t.hash(key), key)
}

// GetHashed is Get for a caller that already holds hv, which must be this
// table's HashOf(key) — the front ends compute it at submit for the stage-one
// prefetch. The bucket is derived from it against the state loaded here, so an
// hv taken before a grow stays valid after it. PutHashed, MutateHashed and
// DeleteHashed have the same contract.
func (h *BucketHandle) GetHashed(hv uint64, key []byte) ([]byte, bool) {
	h.w.Enter(h.t.ar)
	v, ok := h.lookup(hv, key)
	h.w.Exit()
	return v, ok
}

// lookup is GetHashed's probe, run under the caller's pin.
func (h *BucketHandle) lookup(hv uint64, key []byte) ([]byte, bool) {
	t := h.t
	fp := table.TagOf(hv)
	st := t.state.Load()
	b := hashfn.Fastrange(hv, st.nb) * BucketWords
	h.Lines++
	meta := atomic.LoadUint64(&st.words[b])
	for m := simd.BucketCandidates7(meta, fp); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros8(m)
		w := atomic.LoadUint64(&st.words[b+uint64(lane)+1])
		if slotFP(w) != uint16(fp) {
			continue // empty, tombstone, or a mid-publish other key
		}
		k, v := t.ar.Record(slotRef(w))
		if bytes.Equal(k, key) {
			return v, true
		}
	}
	if uint8(meta)&bucketStashBit != 0 {
		for n := st.stash[b/BucketWords].Load(); n != nil; n = n.next {
			h.Hops++
			w := n.word.Load()
			if slotFP(w) != uint16(fp) {
				continue
			}
			k, v := t.ar.Record(slotRef(w))
			if bytes.Equal(k, key) {
				return v, true
			}
		}
	}
	return nil, false
}

// Put stores value for key, overwriting silently. Returns whether the key
// already existed.
func (h *BucketHandle) Put(key, value []byte) (existed bool) {
	return h.mutate(h.t.hash(key), key, value, nil)
}

// PutHashed is Put with the key's hash supplied (see GetHashed).
func (h *BucketHandle) PutHashed(hv uint64, key, value []byte) (existed bool) {
	return h.mutate(hv, key, value, nil)
}

// Mutate atomically read-modify-writes key: fn receives the current value
// (nil, false when absent) and returns the value to store. Under
// contention fn may run multiple times; exactly the final invocation's
// result is published, and its input is the record it replaced — this is
// the linearizable add the uint64 Upsert contract needs.
func (h *BucketHandle) Mutate(key []byte, fn func(old []byte, present bool) []byte) (existed bool) {
	return h.mutate(h.t.hash(key), key, nil, fn)
}

// MutateHashed is Mutate with the key's hash supplied (see GetHashed).
func (h *BucketHandle) MutateHashed(hv uint64, key []byte, fn func(old []byte, present bool) []byte) (existed bool) {
	return h.mutate(hv, key, nil, fn)
}

func (h *BucketHandle) mutate(hv uint64, key, value []byte, fn func([]byte, bool) []byte) (existed bool) {
	t := h.t
	fp := table.TagOf(hv)
	g := &t.gates[hv&(bucketGateStripes-1)]
	g.RLock()
	existed, needGrow := h.mutateLocked(key, value, fn, hv, fp)
	g.RUnlock() // grow() write-locks every stripe; release ours first
	if needGrow {
		t.grow()
	}
	return existed
}

func (h *BucketHandle) mutateLocked(key, value []byte, fn func([]byte, bool) []byte, hv uint64, fp uint8) (existed, needGrow bool) {
	t := h.t
retry:
	st := t.state.Load()
	b := hashfn.Fastrange(hv, st.nb) * BucketWords
	h.Lines++
	free := -1
	for lane := 0; lane < BucketLanes; lane++ {
		w := atomic.LoadUint64(&st.words[b+uint64(lane)+1])
		if w == 0 {
			if free < 0 {
				free = lane
			}
			continue
		}
		if slotFP(w) != uint16(fp) {
			continue
		}
		k, old := t.ar.Record(slotRef(w))
		if !bytes.Equal(k, key) {
			continue
		}
		// Present in a lane: swing the slot word to a fresh record.
		nv := value
		if fn != nil {
			nv = fn(old, true)
		}
		ref := h.w.Append(key, nv)
		if atomic.CompareAndSwapUint64(&st.words[b+uint64(lane)+1], w, slotWord(fp, ref)) {
			t.ar.Retire(slotRef(w))
			return true, false
		}
		t.ar.Retire(ref) // lost the race; the fresh record is already dead
		goto retry
	}
	// Stash search. Writers read the head pointer directly rather than the
	// meta flag: the flag is set before the first prepend, but the head is
	// the ground truth.
	for n := st.stash[b/BucketWords].Load(); n != nil; n = n.next {
		h.Hops++
		w := n.word.Load()
		if slotFP(w) != uint16(fp) {
			continue
		}
		k, old := t.ar.Record(slotRef(w))
		if !bytes.Equal(k, key) {
			continue
		}
		nv := value
		if fn != nil {
			nv = fn(old, true)
		}
		ref := h.w.Append(key, nv)
		if n.word.CompareAndSwap(w, slotWord(fp, ref)) {
			t.ar.Retire(slotRef(w))
			return true, false
		}
		t.ar.Retire(ref)
		goto retry
	}
	// Absent: insert. Targeting the lowest free lane observed is what makes
	// racing same-key inserters collide on their claim CAS (see the type
	// comment); any CAS failure restarts the whole search.
	nv := value
	if fn != nil {
		nv = fn(nil, false)
	}
	ref := h.w.Append(key, nv)
	w := slotWord(fp, ref)
	if free >= 0 {
		if !atomic.CompareAndSwapUint64(&st.words[b+uint64(free)+1], 0, w) {
			t.ar.Retire(ref)
			goto retry
		}
		// Publish the metadata: fingerprint byte plus bitmap bit. Readers
		// arriving between the slot CAS and this OR still find the lane via
		// the zero-byte fold in BucketCandidates7.
		for {
			meta := atomic.LoadUint64(&st.words[b])
			if atomic.CompareAndSwapUint64(&st.words[b], meta,
				meta|metaFPByte(free, fp)|metaPublishBit(free)) {
				break
			}
		}
	} else {
		// All lanes claimed: stash. Set the stash flag before linking so a
		// reader that loads the meta word after our prepend cannot miss it.
		for {
			meta := atomic.LoadUint64(&st.words[b])
			if uint8(meta)&bucketStashBit != 0 {
				break
			}
			if atomic.CompareAndSwapUint64(&st.words[b], meta, meta|bucketStashBit) {
				break
			}
		}
		n := &stashNode{}
		n.word.Store(w)
		head := &st.stash[b/BucketWords]
		n.next = head.Load()
		if !head.CompareAndSwap(n.next, n) {
			t.ar.Retire(ref)
			goto retry
		}
		st.stashed.Add(1)
	}
	t.live.Add(1)
	if claimed := st.claimed.Add(1); float64(claimed) >= t.maxLoad*float64(st.nb*BucketLanes) {
		return false, true
	}
	return false, false
}

// Delete removes key, returning whether it was present. The lane (or stash
// node) is tombstoned, not freed — fingerprint bytes are write-once — and
// swept by the next rebuild.
func (h *BucketHandle) Delete(key []byte) bool {
	return h.DeleteHashed(h.t.hash(key), key)
}

// DeleteHashed is Delete with the key's hash supplied (see GetHashed).
func (h *BucketHandle) DeleteHashed(hv uint64, key []byte) bool {
	t := h.t
	fp := table.TagOf(hv)
	g := &t.gates[hv&(bucketGateStripes-1)]
	g.RLock()
	defer g.RUnlock()
retry:
	st := t.state.Load()
	b := hashfn.Fastrange(hv, st.nb) * BucketWords
	h.Lines++
	for lane := 0; lane < BucketLanes; lane++ {
		w := atomic.LoadUint64(&st.words[b+uint64(lane)+1])
		if slotFP(w) != uint16(fp) {
			continue
		}
		k, _ := t.ar.Record(slotRef(w))
		if !bytes.Equal(k, key) {
			continue
		}
		if atomic.CompareAndSwapUint64(&st.words[b+uint64(lane)+1], w, slotTombstone) {
			t.ar.Retire(slotRef(w))
			t.live.Add(-1)
			return true
		}
		goto retry
	}
	for n := st.stash[b/BucketWords].Load(); n != nil; n = n.next {
		h.Hops++
		w := n.word.Load()
		if slotFP(w) != uint16(fp) {
			continue
		}
		k, _ := t.ar.Record(slotRef(w))
		if !bytes.Equal(k, key) {
			continue
		}
		if n.word.CompareAndSwap(w, slotTombstone) {
			t.ar.Retire(slotRef(w))
			t.live.Add(-1)
			return true
		}
		goto retry
	}
	return false
}

// grow rebuilds the index: same size when churn (tombstones) caused the
// trigger, doubled until live entries sit at or below ~70% of lanes
// otherwise. Index-only — slot words move, record bytes do not.
func (t *BucketTable) grow() {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	st := t.state.Load()
	if float64(st.claimed.Load()) < t.maxLoad*float64(st.nb*BucketLanes) {
		return // another grower already rebuilt this generation
	}
	for i := range t.gates {
		t.gates[i].Lock()
	}
	live := uint64(t.live.Load())
	nb := st.nb
	for float64(live) >= 0.7*float64(nb*BucketLanes) {
		nb *= 2
	}
	ns := newBucketState(nb)
	// Writers are quiesced and the new arrays are private until the state
	// swap (a release store), so plain accesses are sound on both sides.
	migrate := func(w uint64) {
		if w == 0 || w == slotTombstone {
			return
		}
		t.insertRebuilt(ns, t.hash(t.ar.Key(slotRef(w))), w)
	}
	for bi := uint64(0); bi < st.nb; bi++ {
		base := bi * BucketWords
		for lane := 0; lane < BucketLanes; lane++ {
			migrate(st.words[base+uint64(lane)+1])
		}
		for n := st.stash[bi].Load(); n != nil; n = n.next {
			migrate(n.word.Load())
		}
	}
	t.state.Store(ns)
	t.grows.Add(1)
	for i := range t.gates {
		t.gates[i].Unlock()
	}
	// Migration completion is the reclamation hook: the old index holds no
	// refs anymore, so step the arena epoch and unlink what churn killed.
	t.ar.Advance()
}

// insertRebuilt places one live slot word into the private new state. The
// fingerprint is recovered from the word itself; only the bucket index
// needs the hash.
func (t *BucketTable) insertRebuilt(ns *bucketState, hv uint64, w uint64) {
	b := hashfn.Fastrange(hv, ns.nb) * BucketWords
	fp := uint8(slotFP(w))
	for lane := 0; lane < BucketLanes; lane++ {
		if ns.words[b+uint64(lane)+1] == 0 {
			ns.words[b+uint64(lane)+1] = w
			ns.words[b] |= metaFPByte(lane, fp) | metaPublishBit(lane)
			ns.claimed.Add(1)
			return
		}
	}
	n := &stashNode{next: ns.stash[b/BucketWords].Load()}
	n.word.Store(w)
	ns.stash[b/BucketWords].Store(n)
	ns.words[b] |= bucketStashBit
	ns.claimed.Add(1)
	ns.stashed.Add(1)
}
