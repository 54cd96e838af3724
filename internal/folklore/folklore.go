// Package folklore implements the Folklore concurrent hash table of Maier,
// Sanders and Dementiev ("Concurrent Hash Tables: Fast and General(?)!",
// ACM TOPC 2019), the baseline the DRAMHiT paper measures against and builds
// upon. Folklore is a lock-free open-addressing table with linear probing: a
// single CAS on the key word claims a slot, updates atomically store the
// value word, and the read path uses no atomic read-modify-write at all, so
// concurrent readers keep their cached copies in the MESI shared state.
//
// The interface is synchronous — one request at a time — which is exactly
// what DRAMHiT changes: every operation here eats its cache miss on the
// critical path.
package folklore

import (
	"sync/atomic"

	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// Table is a Folklore hash table. All methods are safe for concurrent use.
type Table struct {
	arr  *slotarr.Array
	side slotarr.SidePair
	hash func(uint64) uint64
	size uint64
	used atomic.Int64 // claimed slots, including tombstones (capacity accounting)
	live atomic.Int64 // present entries, excluding tombstones
	obs  *obsCounters // nil unless Observe was called
}

// obsCounters are the table's hot-path observability counters. Folklore has
// no per-goroutine handle to shard by, so each counter stripes over padded
// cells keyed by the operation's home slot — well-distributed by the hash,
// so concurrent operators rarely collide on a counter cache line.
type obsCounters struct {
	ops    *obs.ShardedCounter // completed operations
	probes *obs.ShardedCounter // slots inspected
	hits   *obs.ShardedCounter // Gets that found / Deletes that removed
}

// Observe attaches the table to the observability registry: per-op counters
// stripe over padded cells (see obsCounters), a pull source reports
// table-level aggregates at scrape time, and a heatmap source walks the slot
// array on demand. Folklore records no per-op latency and feeds no hot-key
// sketch: both are per-writer structures, and folklore has no per-goroutine
// handle to own one (its callers time their own synchronous ops). Call
// before the table is shared; a table without Observe pays one nil check per
// operation and nothing else.
func (t *Table) Observe(reg *obs.Registry) {
	oc := &obsCounters{
		ops:    obs.NewShardedCounter(64),
		probes: obs.NewShardedCounter(64),
		hits:   obs.NewShardedCounter(64),
	}
	t.obs = oc
	reg.AddHeatmapSource("folklore", t.Heatmap)
	reg.AddSource("folklore", func() map[string]float64 {
		return map[string]float64{
			"ops":         float64(oc.ops.Total()),
			"probe_slots": float64(oc.probes.Total()),
			"hits":        float64(oc.hits.Total()),
			"live":        float64(t.Len()),
			"slots":       float64(t.Cap()),
			"fill":        t.Fill(),
		}
	})
}

// obsRec records one completed operation that inspected `slots` slots.
func (t *Table) obsRec(home, slots uint64, hit bool) {
	o := t.obs
	o.ops.Inc(home)
	o.probes.Add(home, slots)
	if hit {
		o.hits.Inc(home)
	}
}

// Option configures a Table.
type Option func(*Table)

// WithHash overrides the hash function (the default is hashfn.City64;
// hashfn.CRC64 matches the paper's CRC32-based configuration).
func WithHash(h func(uint64) uint64) Option {
	return func(t *Table) { t.hash = h }
}

// New creates a table with n slots. Values equal to slotarr.InFlightValue
// are reserved and must not be stored.
func New(n uint64, opts ...Option) *Table {
	t := &Table{arr: slotarr.New(n), hash: hashfn.City64, size: n}
	for _, o := range opts {
		o(t)
	}
	return t
}

// index returns the home slot of key.
func (t *Table) index(key uint64) uint64 {
	return hashfn.Fastrange(t.hash(key), t.size)
}

// step advances a probe index with wraparound.
func (t *Table) step(i uint64) uint64 {
	i++
	if i == t.size {
		return 0
	}
	return i
}

// Get returns the value stored for key and whether it was present.
func (t *Table) Get(key uint64) (uint64, bool) {
	if s := t.side.For(key); s != nil {
		v, ok := s.Get()
		if t.obs != nil {
			t.obsRec(0, 0, ok)
		}
		return v, ok
	}
	i := t.index(key)
	home := i
	for probes := uint64(0); probes < t.size; probes++ {
		switch k := t.arr.Key(i); k {
		case key:
			if t.obs != nil {
				t.obsRec(home, probes+1, true)
			}
			return t.arr.WaitValue(i), true
		case table.EmptyKey:
			if t.obs != nil {
				t.obsRec(home, probes+1, false)
			}
			return 0, false
		}
		i = t.step(i)
	}
	if t.obs != nil {
		t.obsRec(home, t.size, false)
	}
	return 0, false
}

// Put stores value for key, overwriting silently. It returns false only if
// the table has no free slot left on the probe path (table full).
func (t *Table) Put(key, value uint64) bool {
	if s := t.side.For(key); s != nil {
		s.Put(value)
		if t.obs != nil {
			t.obsRec(0, 0, false)
		}
		return true
	}
	i := t.index(key)
	home := i
	for probes := uint64(0); probes < t.size; probes++ {
		switch k := t.arr.Key(i); k {
		case key:
			t.arr.StoreValue(i, value)
			if t.obs != nil {
				t.obsRec(home, probes+1, false)
			}
			return true
		case table.EmptyKey:
			if t.arr.CASKey(i, table.EmptyKey, key) {
				t.arr.StoreValue(i, value)
				t.used.Add(1)
				t.live.Add(1)
				if t.obs != nil {
					t.obsRec(home, probes+1, false)
				}
				return true
			}
			// Lost the claim race; re-inspect the same slot, which now
			// holds some key (possibly ours).
			continue
		}
		// Occupied by another key or a tombstone (never reused): keep
		// probing.
		i = t.step(i)
	}
	if t.obs != nil {
		t.obsRec(home, t.size, false)
	}
	return false
}

// Upsert adds delta to the value for key, inserting delta if the key is
// absent. It returns the resulting value, and false only if the table is
// full.
func (t *Table) Upsert(key, delta uint64) (uint64, bool) {
	if s := t.side.For(key); s != nil {
		v, _ := s.Upsert(delta)
		if t.obs != nil {
			t.obsRec(0, 0, false)
		}
		return v, true
	}
	i := t.index(key)
	home := i
	for probes := uint64(0); probes < t.size; probes++ {
		switch k := t.arr.Key(i); k {
		case key:
			if t.obs != nil {
				t.obsRec(home, probes+1, false)
			}
			return t.arr.AddValue(i, delta), true
		case table.EmptyKey:
			if t.arr.CASKey(i, table.EmptyKey, key) {
				t.arr.StoreValue(i, delta)
				t.used.Add(1)
				t.live.Add(1)
				if t.obs != nil {
					t.obsRec(home, probes+1, false)
				}
				return delta, true
			}
			continue
		}
		i = t.step(i)
	}
	if t.obs != nil {
		t.obsRec(home, t.size, false)
	}
	return 0, false
}

// Delete marks key's slot as a tombstone, returning whether the key was
// present. Tombstoned slots are never reused; space is reclaimed on resize
// only.
func (t *Table) Delete(key uint64) bool {
	if s := t.side.For(key); s != nil {
		ok := s.Delete()
		if t.obs != nil {
			t.obsRec(0, 0, ok)
		}
		return ok
	}
	i := t.index(key)
	home := i
	for probes := uint64(0); probes < t.size; probes++ {
		switch k := t.arr.Key(i); k {
		case key:
			if t.arr.CASKey(i, key, table.TombstoneKey) {
				t.live.Add(-1)
				if t.obs != nil {
					t.obsRec(home, probes+1, true)
				}
				return true
			}
			// The only possible transition under us is key → tombstone by a
			// concurrent delete; report not-present-anymore.
			if t.obs != nil {
				t.obsRec(home, probes+1, false)
			}
			return false
		case table.EmptyKey:
			if t.obs != nil {
				t.obsRec(home, probes+1, false)
			}
			return false
		}
		i = t.step(i)
	}
	if t.obs != nil {
		t.obsRec(home, t.size, false)
	}
	return false
}

// Heatmap walks the slot array and builds the standard flat-layout
// introspection heatmap (region fill, probe-depth and probe-line
// distributions). Scrape-time work, safe against concurrent operations;
// also used by wrappers (growt) that want the active generation's map
// without re-deriving the home function.
func (t *Table) Heatmap() obs.Heatmap {
	return slotarr.FlatHeatmap(t.arr, t.index, 0)
}

// Len returns the number of live entries (including reserved-key entries).
func (t *Table) Len() int { return int(t.live.Load()) + t.side.Count() }

// Cap returns the number of slots.
func (t *Table) Cap() int { return int(t.size) }

// Fill returns the fraction of slots consumed (claimed slots including
// tombstones over capacity); open-addressing performance degrades sharply
// past ~0.8.
func (t *Table) Fill() float64 { return float64(t.used.Load()) / float64(t.size) }

// ProbeLength returns the number of slots inspected to find key, or -1 if
// absent — an observability hook used by tests and by the reprobe-statistics
// experiments (the paper reports 1.3 cache-line accesses per op at 75% fill).
func (t *Table) ProbeLength(key uint64) int {
	if t.side.For(key) != nil {
		return 0
	}
	i := t.index(key)
	for probes := uint64(0); probes < t.size; probes++ {
		switch t.arr.Key(i) {
		case key:
			return int(probes) + 1
		case table.EmptyKey:
			return -1
		}
		i = t.step(i)
	}
	return -1
}

// Range calls fn for every live entry (including reserved-key entries)
// until fn returns false. It takes no snapshot: entries inserted or deleted
// concurrently may or may not be observed, exactly like iterating any
// lock-free structure. The resizing wrapper uses it during migration, when
// it has externally quiesced writers.
func (t *Table) Range(fn func(key, value uint64) bool) {
	for _, rk := range []uint64{table.EmptyKey, table.TombstoneKey, table.MovedKey} {
		if s := t.side.For(rk); s != nil {
			if v, ok := s.Get(); ok {
				if !fn(rk, v) {
					return
				}
			}
		}
	}
	for i := uint64(0); i < t.size; i++ {
		k := t.arr.Key(i)
		if table.IsReservedKey(k) {
			continue
		}
		if !fn(k, t.arr.WaitValue(i)) {
			return
		}
	}
}

var _ table.Map = (*Table)(nil)
