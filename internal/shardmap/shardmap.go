// Package shardmap scales past one table: a horizontal shard router over N
// independent table instances, with online re-sharding — live shard splits
// and merges that never stop the world.
//
// Routing is range-of-hash on a dedicated selector hash (hashfn.Shard64, a
// splitmix64-family bijection): a key belongs to the shard owning the top
// `bits` bits of its selector hash. The selector's constant family is
// disjoint from the in-table probe hashes (City64/CRC64), so the shard
// coordinate and the home-bucket coordinate are statistically independent —
// sharding cannot create correlated per-shard bucket hotspots (pinned by
// TestShardSelectorIndependence in internal/hashfn).
//
// The directory is extendible-hashing style: 2^depth pointers, where a shard
// with local depth `bits` ≤ depth covers a contiguous power-of-two-aligned
// run of 2^(depth-bits) entries. A split doubles one shard without touching
// the others; the directory itself doubles only when the split shard was
// already at global depth, and that doubling is an O(2^depth) pointer copy
// performed while pre-building the post-swap directory — never on the op
// path.
//
// Re-sharding reuses the incremental migration machinery PR 5 proved for
// in-table resize, generalized across shards: a window publishes a
// resharding descriptor behind the state pointer, every subsequent operation
// on the covered shard helps by claiming one chunk of source slots (CAS
// unclaimed→busy) and scattering its live entries to their destination
// shards with folklore.MigrateRangeTo — publish in the destination, then
// retire the source slot with table.MovedKey. Readers on the covered shard
// go old-then-new; writers relocate their key's source chunk before writing
// the destination (the anti-resurrection rule); the swap is one state-pointer
// CAS once the last chunk completes. Operations on uncovered shards are
// untouched — they pay one pointer compare.
//
// There are two faces: Map is the synchronous table.Map router over folklore
// shards (the re-shardable one — folklore's slot layout carries the MovedKey
// protocol); Batched (batched.go) routes the batched asynchronous Submit
// interface over N dramhit instances with per-shard handles, so prefetch
// windows stay per-shard.
package shardmap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dramhit/internal/folklore"
	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/table"
)

// DefaultMaxFill is the per-shard fill factor that triggers an automatic
// split — the same 0.75 the in-table resize uses, for the same reason.
const DefaultMaxFill = 0.75

// DefaultChunkSlots is the number of source-shard slots one helping
// operation migrates; it bounds the worst-case latency any operation pays
// during a split to one chunk scatter.
const DefaultChunkSlots = 512

// DefaultMaxDepth caps a shard's local depth (2^20 shards is far beyond any
// useful configuration; the cap turns a pathological never-relieving split
// loop into an honest table-full report).
const DefaultMaxDepth = 20

// minShardSlots floors a shard table's capacity.
const minShardSlots = 16

// shard is one routing target: a folklore table owning every key whose
// selector hash starts with pfx (bits wide, taken from the top).
type shard struct {
	id   uint64 // creation sequence; stable identity for metrics labels
	bits uint   // local depth
	pfx  uint64 // owned selector prefix, right-aligned in the low `bits` bits
	tbl  *folklore.Table
	ops  *obs.ShardedCounter // completed ops; nil unless observing
}

func (sh *shard) opsInc(hint uint64) {
	if sh.ops != nil {
		sh.ops.Inc(hint)
	}
}

// dirState is one generation of the routing directory. A fresh value is
// published for every transition (window install and swap), so the pointer
// doubles as the generation identity the swap CAS keys on — exactly the
// state{cur,mig} pattern of internal/growt, lifted from slots to shards.
type dirState struct {
	depth uint
	dir   []*shard    // 1<<depth entries
	mig   *resharding // nil outside a re-sharding window
}

// slot returns the directory index for a selector hash.
func (st *dirState) slot(h uint64) uint64 {
	return h >> (64 - st.depth) // depth 0 ⇒ shift 64 ⇒ index 0
}

// distinct iterates the directory's distinct shards in prefix order. A
// shard's directory run is contiguous, so deduplication is one pointer
// compare against the previous entry.
func (st *dirState) distinct(fn func(*shard)) {
	var prev *shard
	for _, sh := range st.dir {
		if sh == prev {
			continue
		}
		prev = sh
		fn(sh)
	}
}

// Map is the synchronous sharded hash table. All methods are safe for
// concurrent use.
type Map struct {
	// gate is the window install barrier, not an operation lock: operations
	// hold the read side for their duration, a re-sharding takes the write
	// side only to publish a pre-built window — the same O(1) exclusive
	// acquisition that growt's resize proved.
	gate     sync.RWMutex
	st       atomic.Pointer[dirState]
	sel      func(uint64) uint64
	maxFill  float64
	chunk    uint64
	maxDepth uint

	nextID atomic.Uint64
	// installing single-flights window construction: one re-sharding at a
	// time, whether triggered by fill pressure or the explicit Split/Merge
	// API.
	installing atomic.Uint32

	splits atomic.Uint64 // completed splits
	merges atomic.Uint64 // completed merges
	helped atomic.Uint64 // chunks migrated by helping/relocating operations
	waits  atomic.Uint64 // operations that waited on another owner's chunk

	observing bool
	splitHist *obs.Histogram // per-chunk scatter ns; nil unless observing
	trace     *obs.TraceRing // re-sharding window spans; nil unless observing

	// obsw/opLat arm per-op-class latency timing (set by Observe when the
	// registry enabled it); one shared Worker, as in folklore.
	obsw  *obs.Worker
	opLat bool

	// noHelp disables one-chunk-per-op helping so the property tests can
	// step a window manually; relocation (correctness) is unaffected. Set
	// only before the map is shared.
	noHelp bool
}

// Option configures a Map.
type Option func(*cfg)

type cfg struct {
	shards   int
	chunk    uint64
	maxDepth uint
}

// WithShards sets the initial shard count (a power of two; default 1). The
// requested total capacity is divided evenly across them.
func WithShards(n int) Option {
	return func(c *cfg) { c.shards = n }
}

// WithChunkSlots overrides the migration chunk size (minimum 1); tests use
// chunk=1 to maximize observable interruption points.
func WithChunkSlots(n uint64) Option {
	return func(c *cfg) {
		if n < 1 {
			n = 1
		}
		c.chunk = n
	}
}

// WithMaxDepth overrides the local-depth cap.
func WithMaxDepth(d uint) Option {
	return func(c *cfg) { c.maxDepth = d }
}

// New creates a sharded map with a total initial capacity of n slots.
func New(n uint64, opts ...Option) *Map {
	c := cfg{shards: 1, chunk: DefaultChunkSlots, maxDepth: DefaultMaxDepth}
	for _, o := range opts {
		o(&c)
	}
	if c.shards < 1 {
		c.shards = 1
	}
	if c.shards&(c.shards-1) != 0 {
		panic("shardmap: shard count must be a power of two")
	}
	depth := uint(0)
	for 1<<depth < c.shards {
		depth++
	}
	if depth > c.maxDepth {
		c.maxDepth = depth
	}
	m := &Map{
		sel:      hashfn.Shard64,
		maxFill:  DefaultMaxFill,
		chunk:    c.chunk,
		maxDepth: c.maxDepth,
	}
	per := n / uint64(c.shards)
	if per < minShardSlots {
		per = minShardSlots
	}
	dir := make([]*shard, 1<<depth)
	for i := range dir {
		dir[i] = m.newShard(depth, uint64(i), per)
	}
	m.st.Store(&dirState{depth: depth, dir: dir})
	return m
}

func (m *Map) newShard(bits uint, pfx, slots uint64) *shard {
	sh := &shard{id: m.nextID.Add(1) - 1, bits: bits, pfx: pfx, tbl: folklore.New(slots)}
	if m.observing {
		sh.ops = obs.NewShardedCounter(16)
	}
	return sh
}

// opStart/opEnd time one operation into the shared Worker's per-op-class
// histogram when Observe armed latency recording (see folklore). The span
// includes any helping chunk scatter the operation performed inside a
// re-sharding window — that tail is the cost the incremental protocol
// bounds, so it belongs in the distribution.
func (m *Map) opStart() int64 {
	if m.opLat {
		return time.Now().UnixNano()
	}
	return 0
}

func (m *Map) opEnd(start int64, op table.Op, hit bool) {
	if start != 0 {
		m.obsw.Op[obs.OpClass(op, hit)].Record(uint64(time.Now().UnixNano() - start))
	}
}

// Get implements table.Map.
func (m *Map) Get(key uint64) (uint64, bool) {
	start := m.opStart()
	v, ok := m.get(key)
	m.opEnd(start, table.Get, ok)
	return v, ok
}

func (m *Map) get(key uint64) (uint64, bool) {
	h := m.sel(key)
	m.gate.RLock()
	st := m.st.Load()
	sh := st.dir[st.slot(h)]
	g := st.mig
	if g == nil || !g.covers(sh) {
		v, ok := sh.tbl.Get(key)
		sh.opsInc(h)
		m.gate.RUnlock()
		return v, ok
	}
	if !m.noHelp {
		m.helpOne(g)
	}
	// Old-then-new: a migrated entry is published in its destination before
	// the source slot is retired, so missing it in the source implies it is
	// visible in the destination. Reserved keys moved at install; the
	// destination is authoritative for them all window long.
	var v uint64
	var ok bool
	if table.IsReservedKey(key) {
		v, ok = g.dst(h).tbl.Get(key)
	} else if v, ok = sh.tbl.Get(key); !ok {
		v, ok = g.dst(h).tbl.Get(key)
	}
	sh.opsInc(h)
	m.gate.RUnlock()
	m.maybeSwap(st)
	return v, ok
}

// Put implements table.Map. It reports false only when the key's shard has
// reached the local-depth cap and cannot split further — genuine fullness.
func (m *Map) Put(key, value uint64) bool {
	start := m.opStart()
	ok := m.put(key, value)
	m.opEnd(start, table.Put, ok)
	return ok
}

func (m *Map) put(key, value uint64) bool {
	h := m.sel(key)
	for {
		m.gate.RLock()
		st := m.st.Load()
		sh := st.dir[st.slot(h)]
		if g := st.mig; g != nil && g.covers(sh) {
			if !m.noHelp {
				m.helpOne(g)
			}
			m.relocate(g, sh, key)
			d := g.dst(h)
			ok := d.tbl.Fill() < m.maxFill && d.tbl.Put(key, value)
			sh.opsInc(h)
			m.gate.RUnlock()
			m.maybeSwap(st)
			if ok {
				return true
			}
			// The destination itself crossed the threshold mid-window
			// (heavy insert pressure): retire this window, then retry — the
			// follow-up split targets the overfull destination.
			m.drain(st)
			continue
		}
		fill := sh.tbl.Fill()
		ok := fill < m.maxFill && sh.tbl.Put(key, value)
		sh.opsInc(h)
		m.gate.RUnlock()
		if ok {
			return true
		}
		if !m.relieve(st, sh) {
			return false
		}
	}
}

// Upsert implements table.Map.
func (m *Map) Upsert(key, delta uint64) (uint64, bool) {
	start := m.opStart()
	v, ok := m.upsert(key, delta)
	m.opEnd(start, table.Upsert, ok)
	return v, ok
}

func (m *Map) upsert(key, delta uint64) (uint64, bool) {
	h := m.sel(key)
	for {
		m.gate.RLock()
		st := m.st.Load()
		sh := st.dir[st.slot(h)]
		if g := st.mig; g != nil && g.covers(sh) {
			if !m.noHelp {
				m.helpOne(g)
			}
			m.relocate(g, sh, key)
			d := g.dst(h)
			var v uint64
			ok := d.tbl.Fill() < m.maxFill
			if ok {
				v, ok = d.tbl.Upsert(key, delta)
			}
			sh.opsInc(h)
			m.gate.RUnlock()
			m.maybeSwap(st)
			if ok {
				return v, true
			}
			m.drain(st)
			continue
		}
		var v uint64
		fill := sh.tbl.Fill()
		ok := fill < m.maxFill
		if ok {
			v, ok = sh.tbl.Upsert(key, delta)
		}
		sh.opsInc(h)
		m.gate.RUnlock()
		if ok {
			return v, true
		}
		if !m.relieve(st, sh) {
			return 0, false
		}
	}
}

// Delete implements table.Map.
func (m *Map) Delete(key uint64) bool {
	start := m.opStart()
	hit := m.del(key)
	m.opEnd(start, table.Delete, hit)
	return hit
}

func (m *Map) del(key uint64) bool {
	h := m.sel(key)
	m.gate.RLock()
	st := m.st.Load()
	sh := st.dir[st.slot(h)]
	g := st.mig
	if g == nil || !g.covers(sh) {
		ok := sh.tbl.Delete(key)
		sh.opsInc(h)
		m.gate.RUnlock()
		return ok
	}
	if !m.noHelp {
		m.helpOne(g)
	}
	// A delete is a write: relocate the key's source entry (if any) so the
	// tombstone lands in the destination, where it is authoritative.
	m.relocate(g, sh, key)
	ok := g.dst(h).tbl.Delete(key)
	sh.opsInc(h)
	m.gate.RUnlock()
	m.maybeSwap(st)
	return ok
}

// relieve responds to fill pressure on sh observed under generation st:
// retire any window open on another shard, or open a split window on sh.
// It reports false when sh is at the local-depth cap — the one case Put
// surfaces as table-full.
func (m *Map) relieve(st *dirState, sh *shard) bool {
	if sh.bits >= m.maxDepth {
		return false
	}
	if st.mig != nil {
		// One re-sharding at a time: an open window on some other shard must
		// retire before ours can install. Drain it — bounded by its
		// remaining chunks.
		m.drain(st)
		return true
	}
	if m.installing.CompareAndSwap(0, 1) {
		m.installSplit(st, sh)
		m.installing.Store(0)
		return true
	}
	// Another goroutine is building a window. Wait for it to land rather
	// than allocating a duplicate successor pair.
	for m.st.Load() == st && m.installing.Load() == 1 {
		runtime.Gosched()
	}
	return true
}

// Len implements table.Map. During a window the destinations ride along;
// relocation marks the source slot before an operation returns, so the sum
// is exact whenever no operation is in flight.
func (m *Map) Len() int {
	m.gate.RLock()
	st := m.st.Load()
	n := 0
	st.distinct(func(sh *shard) { n += sh.tbl.Len() })
	if st.mig != nil {
		for _, d := range st.mig.dsts {
			n += d.tbl.Len()
		}
	}
	m.gate.RUnlock()
	return n
}

// Cap implements table.Map. During a window it reports the post-swap
// capacity — those allocations are already committed.
func (m *Map) Cap() int {
	m.gate.RLock()
	st := m.st.Load()
	if st.mig != nil {
		st = st.mig.next
	}
	c := 0
	st.distinct(func(sh *shard) { c += sh.tbl.Cap() })
	m.gate.RUnlock()
	return c
}

// Fill returns the aggregate fill factor (claimed slots over capacity,
// summed across shards).
func (m *Map) Fill() float64 {
	m.gate.RLock()
	st := m.st.Load()
	if st.mig != nil {
		st = st.mig.next
	}
	var used, capn float64
	st.distinct(func(sh *shard) {
		c := float64(sh.tbl.Cap())
		used += sh.tbl.Fill() * c
		capn += c
	})
	m.gate.RUnlock()
	if capn == 0 {
		return 0
	}
	return used / capn
}

// ShardCount returns the number of distinct shards behind the directory.
func (m *Map) ShardCount() int {
	st := m.st.Load()
	n := 0
	st.distinct(func(*shard) { n++ })
	return n
}

// Resharding reports whether a split/merge window is currently open.
func (m *Map) Resharding() bool { return m.st.Load().mig != nil }

// Stats is a point-in-time snapshot of the router and its re-sharding
// machinery.
type Stats struct {
	// Shards is the distinct shard count; Depth the directory's global depth.
	Shards int
	Depth  uint
	// Splits and Merges count completed re-shardings.
	Splits uint64
	Merges uint64
	// ChunksHelped counts migration chunks scattered by helping or
	// relocating operations; ChunkWaits counts operations that waited for
	// another operation's in-flight chunk (the bounded wait of the protocol).
	ChunksHelped uint64
	ChunkWaits   uint64
	// Resharding reports an open window; MigrationDone/Total are its chunk
	// progress when it is.
	Resharding     bool
	MigrationDone  uint64
	MigrationTotal uint64
}

// Stats returns the current router statistics.
func (m *Map) Stats() Stats {
	st := m.st.Load()
	s := Stats{
		Depth:        st.depth,
		Splits:       m.splits.Load(),
		Merges:       m.merges.Load(),
		ChunksHelped: m.helped.Load(),
		ChunkWaits:   m.waits.Load(),
	}
	st.distinct(func(*shard) { s.Shards++ })
	if g := st.mig; g != nil {
		s.Resharding = true
		s.MigrationDone = g.done.Load()
		s.MigrationTotal = g.nchunks
	}
	return s
}

// ShardStat describes one shard for per-shard metrics and bench output.
type ShardStat struct {
	ID   uint64  `json:"id"`
	Bits uint    `json:"bits"`
	Pfx  uint64  `json:"prefix"`
	Live int     `json:"live"`
	Cap  int     `json:"cap"`
	Fill float64 `json:"fill"`
	Ops  uint64  `json:"ops"`
}

// ShardStats snapshots every distinct shard in prefix order.
func (m *Map) ShardStats() []ShardStat {
	st := m.st.Load()
	var out []ShardStat
	st.distinct(func(sh *shard) {
		s := ShardStat{
			ID: sh.id, Bits: sh.bits, Pfx: sh.pfx,
			Live: sh.tbl.Len(), Cap: sh.tbl.Cap(), Fill: sh.tbl.Fill(),
		}
		if sh.ops != nil {
			s.Ops = sh.ops.Total()
		}
		out = append(out, s)
	})
	return out
}

// Observe attaches the map to the observability registry: a pull source
// reports router aggregates plus per-shard (shard-id-labelled) ops/fill/live
// gauges, and chunk-scatter latencies are recorded into the
// "shard_split_chunk" worker's histogram (rendered as the
// shard_split_chunk_ns series by /metrics). Call before the map is shared;
// an unobserved map pays one nil check per operation and nothing else.
func (m *Map) Observe(reg *obs.Registry) {
	m.observing = true
	m.splitHist = &reg.Worker("shard_split_chunk").Lat
	m.trace = reg.Trace()
	if reg.OpLatencyEnabled() {
		m.obsw = reg.Worker("shardmap")
		m.opLat = true
	}
	m.st.Load().distinct(func(sh *shard) {
		sh.ops = obs.NewShardedCounter(16)
	})
	reg.AddSource("shardmap", m.metrics)
	reg.AddHeatmapSource("shardmap", m.heatmap)
}

// heatmap builds the router's "shards" heatmap: one region per distinct
// shard in prefix order (value = that shard's fill), the local-depth and
// per-shard-fill distributions, and the router gauges a scrape needs to
// tell skew from mid-reshard transients. Selector independence (pinned in
// internal/hashfn) means a flat Regions row here with a hot key in TopKeys
// is the signature of single-key skew, not routing skew.
func (m *Map) heatmap() obs.Heatmap {
	m.gate.RLock()
	st := m.st.Load()
	var regions []float64
	bits := obs.DistBuilder{}
	fills := obs.DistBuilder{}
	var live, slots uint64
	var usedf float64
	st.distinct(func(sh *shard) {
		f := sh.tbl.Fill()
		regions = append(regions, f)
		bits.Add(uint64(sh.bits))
		fills.Add(uint64(f * 100))
		live += uint64(sh.tbl.Len())
		slots += uint64(sh.tbl.Cap())
		usedf += f * float64(sh.tbl.Cap())
	})
	var done, total uint64
	if st.mig != nil {
		done, total = st.mig.done.Load(), st.mig.nchunks
	}
	m.gate.RUnlock()
	hm := obs.Heatmap{
		Kind:    "shards",
		Regions: regions,
		Dists: []obs.HeatDist{
			fills.Build("shard_fill_pct"),
			bits.Build("shard_local_depth"),
		},
		Gauges: map[string]float64{
			"shards":     float64(len(regions)),
			"depth":      float64(st.depth),
			"live":       float64(live),
			"slots":      float64(slots),
			"splits":     float64(m.splits.Load()),
			"merges":     float64(m.merges.Load()),
			"resharding": 0,
		},
	}
	if slots != 0 {
		hm.Gauges["fill"] = usedf / float64(slots)
	}
	if total != 0 {
		hm.Gauges["resharding"] = 1
		hm.Gauges["migration_progress"] = float64(done) / float64(total)
	}
	return hm
}

func (m *Map) metrics() map[string]float64 {
	s := m.Stats()
	progress := 1.0
	resharding := 0.0
	if s.Resharding {
		resharding = 1
		progress = float64(s.MigrationDone) / float64(s.MigrationTotal)
	}
	out := map[string]float64{
		"shards":             float64(s.Shards),
		"depth":              float64(s.Depth),
		"shard_splits_total": float64(s.Splits),
		"shard_merges_total": float64(s.Merges),
		"chunks_helped":      float64(s.ChunksHelped),
		"chunk_waits":        float64(s.ChunkWaits),
		"resharding":         resharding,
		"migration_progress": progress,
		"live":               float64(m.Len()),
		"slots":              float64(m.Cap()),
		"fill":               m.Fill(),
	}
	for _, sh := range m.ShardStats() {
		pfx := fmt.Sprintf("shard%d_", sh.ID)
		out[pfx+"ops"] = float64(sh.Ops)
		out[pfx+"fill"] = sh.Fill
		out[pfx+"live"] = float64(sh.Live)
	}
	return out
}

var _ table.Map = (*Map)(nil)
