package slotarr

import (
	"bytes"
	"fmt"
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
//     Writers pin it too: a writer resolves the records its candidate
//     lanes point at, and a racing overwrite can retire one of them and an
//     Advance unlink its segment before the writer reads it.
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
//     finds the duplicate during its scan. Stash-versus-stash duplicates
//     collide on the prepend CAS, which expects the head the scan walked
//     from. A writer that observed an empty lane skips the stash scan:
//     no stash node of the generation predates that observation (see
//     mutateLocked). Tombstoned stash nodes
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
//
//   - Compaction (arena.Index, regions.Relocate) moves live records out of
//     mostly dead segments. The arena walks its victims' records and the
//     table looks each one up, in chunks under one gate's read lock, which
//     excludes a grow, and swings the word that publishes it by CAS with
//     its fingerprint kept, so a writer racing it on the same word sees an
//     ordinary lost CAS and retries, and a reader sees either record.
type BucketTable struct {
	hash    func([]byte) uint64
	ar      *arena.Arena
	state   atomic.Pointer[bucketState]
	gates   [bucketGateStripes]sync.RWMutex
	growMu  sync.Mutex
	maxLoad float64
	live    atomic.Int64
	grows   atomic.Uint64
	probes  atomic.Uint64 // compaction lookups (CompactProbes)
}

// bucketGateStripes is the number of writer-gate stripes. Any function of
// the key hash may pick a stripe; resize takes all of them.
const bucketGateStripes = 64

// bucketState is one immutable-size generation of the index. claimed
// counts lanes and stash nodes ever claimed in this generation (tombstones
// included — they consume space until the next rebuild); stashed counts
// stash nodes linked.
//
// Every probe reads nb first and every insert writes claimed, so the two sit on
// different cache lines (TestBucketStateCountersOwnLine pins it): the struct is
// two whole lines, which puts it in a line-aligned allocation size class, and
// the counters start the second.
type bucketState struct {
	words   []uint64
	stash   []atomic.Pointer[stashNode]
	nb      uint64
	_       [table.CacheLineBytes - 56]byte // the three fields above are 56 bytes
	claimed atomic.Int64
	stashed atomic.Int64
	_       [table.CacheLineBytes - 16]byte
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
	// Arena is the record store, which the table registers as the arena's
	// index (arena.SetIndex): an arena backs one table, or the regions
	// NewBucketRegions builds over it. Default: a private arena.
	Arena *arena.Arena
	// MaxLoad is the claimed-lane fraction that triggers a grow. The
	// default 0.95 deliberately sits above the 90% fill the layout is
	// benchmarked at, so high-fill operation measures the stash, not the
	// resizer. Values above 1 disable growth entirely (fixed-size
	// benchmarks; the stash absorbs all overflow).
	MaxLoad float64
}

// NewBucketTable creates an empty table, the index of its arena.
func NewBucketTable(cfg BucketConfig) *BucketTable {
	return NewBucketRegions(1, cfg)[0]
}

// NewBucketRegions creates n empty tables over one arena, cfg.Arena or a
// fresh one, each configured by cfg, and registers them as the arena's index:
// a compaction pass looks a record up in the table hashfn.ShardRange(hash, n)
// picks, the region a dramhit view over them routes the key to.
func NewBucketRegions(n int, cfg BucketConfig) []*BucketTable {
	return newRegions(n, cfg).ts
}

// newRegions is NewBucketRegions, returning the arena's index itself.
func newRegions(n int, cfg BucketConfig) *regions {
	if cfg.Arena == nil {
		cfg.Arena = arena.New()
	}
	r := &regions{recs: make([][]arena.Victim, n), hvs: make([][]uint64, n)}
	for range n {
		r.ts = append(r.ts, newBucketTable(cfg))
	}
	cfg.Arena.SetIndex(r)
	return r
}

func newBucketTable(cfg BucketConfig) *BucketTable {
	nb := cfg.Buckets
	if nb == 0 {
		nb = 1
	}
	ml := cfg.MaxLoad
	if ml <= 0 {
		ml = 0.95
	}
	t := &BucketTable{hash: hashfn.Bytes64, ar: cfg.Arena, maxLoad: ml}
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
	// pins is the nesting depth of Pin: the arena pin is entered when it
	// leaves 0 and exited when it returns there.
	pins int
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
	h.Pin()
	v, ok := h.lookup(hv, key)
	h.Unpin()
	return v, ok
}

// Pin holds the handle's arena reclamation pin until the matching Unpin, so a
// caller that runs many lookups in a row (a front end's batch) pins once for
// all of them. Pins nest: only the outermost Pin enters the arena epoch, a
// store that is a full fence on amd64, and only the outermost Unpin exits it;
// a GetHashed inside a pinned span costs neither.
func (h *BucketHandle) Pin() {
	if h.pins == 0 {
		h.w.Enter(h.t.ar)
	}
	h.pins++
}

// Unpin releases one Pin.
func (h *BucketHandle) Unpin() {
	if h.pins--; h.pins == 0 {
		h.w.Exit()
	}
}

// Pinned reports whether a Pin is held.
func (h *BucketHandle) Pinned() bool { return h.pins > 0 }

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
// already existed, and ok false when the arena had no room for the record (its
// segment directory is full): then nothing was written and the key keeps its
// old value.
func (h *BucketHandle) Put(key, value []byte) (existed, ok bool) {
	return h.mutate(h.t.hash(key), key, value, nil)
}

// PutHashed is Put with the key's hash supplied (see GetHashed).
func (h *BucketHandle) PutHashed(hv uint64, key, value []byte) (existed, ok bool) {
	return h.mutate(hv, key, value, nil)
}

// Mutate atomically read-modify-writes key: fn receives the current value
// (nil, false when absent) and returns the value to store, or store false
// to leave the key as it is (absent stays absent, nothing is appended).
// Under contention fn may run multiple times; exactly the final
// invocation's decision takes effect, and its input is the record it
// replaced or kept — this is the linearizable add the uint64 Upsert
// contract needs, and the atomic not-found of memcached's incr. ok is false
// when fn's value could not be stored, as for Put.
func (h *BucketHandle) Mutate(key []byte, fn func(old []byte, present bool) (nv []byte, store bool)) (existed, ok bool) {
	return h.mutate(h.t.hash(key), key, nil, fn)
}

// MutateHashed is Mutate with the key's hash supplied (see GetHashed).
func (h *BucketHandle) MutateHashed(hv uint64, key []byte, fn func(old []byte, present bool) (nv []byte, store bool)) (existed, ok bool) {
	return h.mutate(hv, key, nil, fn)
}

// mutate runs a write under the key's gate (and the pin pinFirst takes),
// then a grow it made due, with the gate released (a grow write-locks every
// stripe) and, outside a caller's span, with no pin held.
func (h *BucketHandle) mutate(hv uint64, key, value []byte, fn func([]byte, bool) ([]byte, bool)) (existed, ok bool) {
	t := h.t
	fp := table.TagOf(hv)
	g := &t.gates[hv&(bucketGateStripes-1)]
	pins := h.pins
	g.RLock()
	existed, ok, needGrow := h.mutateLocked(key, value, fn, hv, fp)
	g.RUnlock()
	if h.pins > pins {
		h.Unpin()
	}
	if needGrow {
		t.grow()
	}
	return existed, ok
}

// pinFirst makes sure a write holds the arena pin before it resolves a
// record another writer published: a racing overwrite can retire that record
// and an Advance unlink its segment between the slot-word load and the read.
// A pin protects only words loaded after it is entered, so when pinFirst has
// to take the pin it reports true and the write rescans the bucket (before a
// stash walk, the whole bucket: a walk's hops are not counted twice). A write
// that resolves no record — an insert of a fresh key, with no fingerprint
// match in its lanes and no stash — never pays the pin's fence. The caller
// releases a pin pinFirst took.
func (h *BucketHandle) pinFirst() bool {
	if h.pins > 0 {
		return false
	}
	h.Pin()
	return true
}

// beforeRecord, when set, runs in mutateLocked between a lane's slot-word
// load and the resolution of its record: a test hook for the window a racing
// overwrite and Advance can open there.
var beforeRecord func()

// mutateLocked is mutate under the key's gate. A record the arena refuses
// (TryAppend) fails the write before any slot word changes.
func (h *BucketHandle) mutateLocked(key, value []byte, fn func([]byte, bool) ([]byte, bool), hv uint64, fp uint8) (existed, ok, needGrow bool) {
	t := h.t
retry:
	st := t.state.Load()
	b := hashfn.Fastrange(hv, st.nb) * BucketWords
	h.Lines++
scan: // pinFirst restarts here: the gate held, the state cannot change
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
		if h.pinFirst() {
			goto scan
		}
		if beforeRecord != nil {
			beforeRecord()
		}
		k, old := t.ar.Record(slotRef(w))
		if !bytes.Equal(k, key) {
			continue
		}
		// Present in a lane: swing the slot word to a fresh record.
		nv := value
		if fn != nil {
			var store bool
			if nv, store = fn(old, true); !store {
				return true, true, false
			}
		}
		ref, ok := h.w.TryAppend(key, nv)
		if !ok {
			return true, false, false
		}
		if atomic.CompareAndSwapUint64(&st.words[b+uint64(lane)+1], w, slotWord(fp, ref)) {
			t.ar.Retire(slotRef(w))
			return true, true, false
		}
		t.ar.Retire(ref) // lost the race; the fresh record is already dead
		goto retry
	}
	// Stash search, skipped when a lane read empty. Lanes are monotone within
	// a generation and a stash node is linked only by an inserter that saw
	// all seven lanes claimed, so a writer that read a lane as 0 either sees
	// no stash node of this generation, or the lane was claimed after its
	// read and its claim CAS on that lane fails and it retries. Otherwise it
	// reads the head pointer, not the meta flag readers use, and a stash
	// insert below prepends to that same head, so a node another inserter
	// linked after this walk fails the prepend CAS.
	head := stashHead(st, b, free < 0)
	if head != nil && h.pinFirst() {
		goto scan
	}
	for n := head; n != nil; n = n.next {
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
			var store bool
			if nv, store = fn(old, true); !store {
				return true, true, false
			}
		}
		ref, ok := h.w.TryAppend(key, nv)
		if !ok {
			return true, false, false
		}
		if n.word.CompareAndSwap(w, slotWord(fp, ref)) {
			t.ar.Retire(slotRef(w))
			return true, true, false
		}
		t.ar.Retire(ref)
		goto retry
	}
	// Absent: insert. Targeting the lowest free lane observed is what makes
	// racing same-key inserters collide on their claim CAS (see the type
	// comment); any CAS failure restarts the whole search.
	nv := value
	if fn != nil {
		var store bool
		if nv, store = fn(nil, false); !store {
			return false, true, false
		}
	}
	ref, ok := h.w.TryAppend(key, nv)
	if !ok {
		return false, false, false
	}
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
		n := &stashNode{next: head}
		n.word.Store(w)
		if !st.stash[b/BucketWords].CompareAndSwap(head, n) {
			t.ar.Retire(ref)
			goto retry
		}
		st.stashed.Add(1)
	}
	t.live.Add(1)
	if claimed := st.claimed.Add(1); float64(claimed) >= t.maxLoad*float64(st.nb*BucketLanes) {
		return false, true, true
	}
	return false, true, false
}

// Delete removes key, returning whether it was present. The lane (or stash
// node) is tombstoned, not freed — fingerprint bytes are write-once — and
// swept by the next rebuild.
func (h *BucketHandle) Delete(key []byte) bool {
	return h.DeleteHashed(h.t.hash(key), key)
}

// DeleteHashed is Delete with the key's hash supplied (see GetHashed).
func (h *BucketHandle) DeleteHashed(hv uint64, key []byte) bool {
	g := &h.t.gates[hv&(bucketGateStripes-1)]
	pins := h.pins
	g.RLock()
	hit := h.deleteLocked(hv, key)
	g.RUnlock()
	if h.pins > pins {
		h.Unpin()
	}
	return hit
}

// deleteLocked is DeleteHashed under the key's gate, pinned as mutateLocked
// is (pinFirst).
func (h *BucketHandle) deleteLocked(hv uint64, key []byte) bool {
	t := h.t
	fp := table.TagOf(hv)
retry:
	st := t.state.Load()
	b := hashfn.Fastrange(hv, st.nb) * BucketWords
	h.Lines++
scan:
	full := true
	for lane := 0; lane < BucketLanes; lane++ {
		w := atomic.LoadUint64(&st.words[b+uint64(lane)+1])
		full = full && w != 0
		if slotFP(w) != uint16(fp) {
			continue
		}
		if h.pinFirst() {
			goto scan
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
	// An empty lane means no stash node was linked before that read
	// (mutateLocked): the key is absent.
	head := stashHead(st, b, full)
	if head != nil && h.pinFirst() {
		goto scan
	}
	for n := head; n != nil; n = n.next {
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

// stashHead is the head of bucket b's stash chain for a writer, or nil when
// the writer read an empty lane (full is false) and so has no chain to walk.
func stashHead(st *bucketState, b uint64, full bool) *stashNode {
	if !full {
		return nil
	}
	return st.stash[b/BucketWords].Load()
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
	// Migration completion is a reclamation hook: the old index holds no
	// refs anymore, so step the arena epoch and unlink what churn killed.
	t.ar.Advance()
}

// regions is the arena.Index of the tables over one arena: a record goes to
// the table hashfn.ShardRange of its key's hash picks, as the dramhit handles
// route a key among a table's regions. One table is the case of one region.
// A compaction pass calls Relocate from one goroutine at a time, so the
// scratch slices need no lock.
type regions struct {
	ts   []*BucketTable
	recs [][]arena.Victim
	hvs  [][]uint64
}

// Relocate is the compaction walk's index side (arena.Index): it hashes each
// record's key once, routes it to its table, and has each table look its
// records up (relocate).
func (r *regions) Relocate(p *arena.Pass, recs []arena.Victim) {
	n := uint64(len(r.ts))
	for i := range r.ts {
		r.recs[i], r.hvs[i] = r.recs[i][:0], r.hvs[i][:0]
	}
	for _, rec := range recs {
		hv := hashfn.Bytes64(rec.Key)
		i := hashfn.ShardRange(hv, n)
		r.recs[i], r.hvs[i] = append(r.recs[i], rec), append(r.hvs[i], hv)
	}
	for i, t := range r.ts {
		if len(r.recs[i]) > 0 && !p.Stopped() {
			t.relocate(p, r.recs[i], r.hvs[i])
		}
		clear(r.recs[i]) // the records alias a victim, which must stay collectable
	}
}

// relocWindow is how many records ahead of its lookup relocate prefetches a
// bucket line: the byte ring's default window.
const relocWindow = 16

// relocate looks up every record of recs, whose key hashes are hvs, under one
// gate's read lock, which excludes a grow: the current generation's word that
// publishes the record's Ref is swung to a copy made through the pass, by CAS
// with its fingerprint kept, so a writer racing it on the same word sees an
// ordinary lost CAS and retries, and a reader sees either record. Each
// record's bucket line is prefetched relocWindow records ahead. A record no
// word publishes is dead: skipped.
func (t *BucketTable) relocate(p *arena.Pass, recs []arena.Victim, hvs []uint64) {
	g := &t.gates[hvs[0]&(bucketGateStripes-1)] // any stripe excludes a grow
	g.RLock()
	defer g.RUnlock()
	st := t.state.Load()
	for _, hv := range hvs[:min(relocWindow, len(hvs))] {
		t.Prefetch(hv)
	}
	probes := uint64(0)
	for i, rec := range recs {
		if i+relocWindow < len(hvs) {
			t.Prefetch(hvs[i+relocWindow])
		}
		probes++
		relocOne(p, st, hvs[i], rec)
		if p.Stopped() {
			break
		}
	}
	t.probes.Add(probes)
}

// relocOne moves rec when a lane word or stash word of hv's bucket publishes
// it. That word is exactly slotWord(TagOf(hv), rec.Ref) (Audit checks it), so
// one compare per word finds it.
func relocOne(p *arena.Pass, st *bucketState, hv uint64, rec arena.Victim) {
	fp := table.TagOf(hv)
	w := slotWord(fp, rec.Ref)
	b := hashfn.Fastrange(hv, st.nb) * BucketWords
	for i := b + 1; i < b+BucketWords; i++ {
		if atomic.LoadUint64(&st.words[i]) == w {
			if cp, ok := p.Copy(rec); ok {
				p.Done(rec.Ref, cp, atomic.CompareAndSwapUint64(&st.words[i], w, slotWord(fp, cp)))
			}
			return
		}
	}
	if uint8(atomic.LoadUint64(&st.words[b]))&bucketStashBit == 0 {
		return
	}
	for n := st.stash[b/BucketWords].Load(); n != nil; n = n.next {
		if n.word.Load() == w {
			if cp, ok := p.Copy(rec); ok {
				p.Done(rec.Ref, cp, n.word.CompareAndSwap(w, slotWord(fp, cp)))
			}
			return
		}
	}
}

// CompactProbes returns the lookups compaction passes have made in this
// table: one per victim record routed to it.
func (t *BucketTable) CompactProbes() uint64 { return t.probes.Load() }

// Audit checks the current generation against the arena: every published
// ref, in lanes and stash nodes, addresses a whole record inside a linked
// segment's appended bytes (arena.Check); each word's fingerprint, and its
// lane's metadata byte, is TagOf the record key's hash; and the published
// words number Len, which claimed covers. It reads records without a pin, so
// call it at quiescence: no write, grow or compaction in flight.
func (t *BucketTable) Audit() error {
	st := t.state.Load()
	var published int64
	check := func(bi uint64, w uint64) error {
		if w == 0 || w == slotTombstone {
			return nil
		}
		published++
		if err := t.ar.Check(slotRef(w)); err != nil {
			return fmt.Errorf("bucket %d: %w", bi, err)
		}
		if fp := table.TagOf(t.hash(t.ar.Key(slotRef(w)))); slotFP(w) != uint16(fp) {
			return fmt.Errorf("bucket %d: word %#x carries fingerprint %#x, its key hashes to %#x", bi, w, slotFP(w), fp)
		}
		return nil
	}
	for bi := uint64(0); bi < st.nb; bi++ {
		meta := atomic.LoadUint64(&st.words[bi*BucketWords])
		for lane := 0; lane < BucketLanes; lane++ {
			w := atomic.LoadUint64(&st.words[bi*BucketWords+uint64(lane)+1])
			if err := check(bi, w); err != nil {
				return err
			}
			if w != 0 && w != slotTombstone && uint8(meta>>(8*(lane+1))) != uint8(slotFP(w)) {
				return fmt.Errorf("bucket %d lane %d: metadata byte %#x, word fingerprint %#x", bi, lane, uint8(meta>>(8*(lane+1))), slotFP(w))
			}
		}
		for n := st.stash[bi].Load(); n != nil; n = n.next {
			if err := check(bi, n.word.Load()); err != nil {
				return err
			}
		}
	}
	if live, claimed := t.live.Load(), st.claimed.Load(); published != live || claimed < live {
		return fmt.Errorf("%d words published, %d live, %d claimed", published, live, claimed)
	}
	return nil
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
