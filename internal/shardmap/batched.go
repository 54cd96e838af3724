// The batched face of the router: Batched shards the asynchronous Submit
// pipeline over N dramhit instances. Each shard is a complete dramhit.Table
// — its own slot array, prefetch windows and mode —
// and a BatchedHandle holds one dramhit.Handle per shard, so every
// per-handle optimization the pipeline has accumulated operates on
// shard-local state. A caller's batch is scattered across the shard-local
// rings by the selector hash and completions are gathered back without any
// global lock: the handle owns all cross-shard buffers.
//
// The batched face is statically sharded (no online re-sharding): the
// MovedKey migration protocol lives in folklore's slot layout, which the
// synchronous Map face routes over. The two faces share the selector hash,
// so a key's shard is the same under either.
package shardmap

import (
	"time"

	"dramhit/internal/dramhit"
	"dramhit/internal/hashfn"
	"dramhit/internal/table"
)

// BatchedConfig configures a sharded batched table.
type BatchedConfig struct {
	// Shards is the shard count (a power of two; 0 and 1 both mean one
	// shard).
	Shards int
	// Table is the per-shard template. Slots is the TOTAL capacity, divided
	// evenly across shards (floored at 16 per shard), so configurations with
	// different shard counts compare at equal memory. Observe is handled by
	// Batched itself: per-shard tables must not each register the fixed
	// "dramhit" source name on one registry (last registration would win),
	// so the template's registry is stripped from the shard tables and
	// Batched registers a single aggregated source with shard-id-labelled
	// keys instead.
	Table dramhit.Config
}

// Batched is a shard router over N dramhit tables. Create per-goroutine
// BatchedHandles with NewHandle.
type Batched struct {
	shards []*dramhit.Table
	depth  uint
	sel    func(uint64) uint64
}

// NewBatched creates the sharded batched table.
func NewBatched(cfg BatchedConfig) *Batched {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	if n&(n-1) != 0 {
		panic("shardmap: shard count must be a power of two")
	}
	depth := uint(0)
	for 1<<depth < n {
		depth++
	}
	reg := cfg.Table.Observe
	tcfg := cfg.Table
	tcfg.Observe = nil
	tcfg.Slots = cfg.Table.Slots / uint64(n)
	if tcfg.Slots < minShardSlots {
		tcfg.Slots = minShardSlots
	}
	b := &Batched{
		shards: make([]*dramhit.Table, n),
		depth:  depth,
		sel:    hashfn.Shard64,
	}
	for i := range b.shards {
		b.shards[i] = dramhit.New(tcfg)
	}
	if reg != nil {
		reg.AddSource("shardmap_batched", b.metrics)
	}
	return b
}

// shardOf returns the shard index owning key.
func (b *Batched) shardOf(key uint64) int {
	return int(b.sel(key) >> (64 - b.depth)) // depth 0 ⇒ shift 64 ⇒ 0
}

// Shards returns the shard count.
func (b *Batched) Shards() int { return len(b.shards) }

// Shard returns shard i's table (bench sweeps read per-shard fill through
// it).
func (b *Batched) Shard(i int) *dramhit.Table { return b.shards[i] }

// Len sums live entries across shards.
func (b *Batched) Len() int {
	n := 0
	for _, t := range b.shards {
		n += t.Len()
	}
	return n
}

// Cap sums slot capacity across shards.
func (b *Batched) Cap() int {
	c := 0
	for _, t := range b.shards {
		c += t.Cap()
	}
	return c
}

// Fill returns the aggregate fill factor.
func (b *Batched) Fill() float64 {
	var used float64
	capn := 0
	for _, t := range b.shards {
		used += t.Fill() * float64(t.Cap())
		capn += t.Cap()
	}
	if capn == 0 {
		return 0
	}
	return used / float64(capn)
}

func (b *Batched) metrics() map[string]float64 {
	out := map[string]float64{
		"shards": float64(len(b.shards)),
		"live":   float64(b.Len()),
		"slots":  float64(b.Cap()),
		"fill":   b.Fill(),
	}
	for i, t := range b.shards {
		pfx := "shard" + itoa(i) + "_"
		out[pfx+"fill"] = t.Fill()
		out[pfx+"live"] = float64(t.Len())
	}
	return out
}

// itoa avoids strconv for the tiny shard-index label (metrics path only).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// gatherBuf is the per-Submit-call response staging size; completions beyond
// the caller's resps slice overflow into a handle-local queue drained by the
// next Submit or Flush.
const gatherBuf = 64

// BatchedHandle is a per-goroutine handle over the sharded pipeline. It is
// not safe for concurrent use (like dramhit.Handle); create one per worker.
type BatchedHandle struct {
	b       *Batched
	hs      []*dramhit.Handle
	scratch [][]table.Request // per-shard scatter buffers, reused across calls
	gather  [gatherBuf]table.Response
	// overflow holds completions produced while the caller's resps slice was
	// full. They are delivered first on the next Submit or Flush, preserving
	// the "completions eventually surface" contract.
	overflow []table.Response
}

// NewHandle creates a handle with one shard-local dramhit.Handle per shard.
func (b *Batched) NewHandle() *BatchedHandle {
	h := &BatchedHandle{
		b:       b,
		hs:      make([]*dramhit.Handle, len(b.shards)),
		scratch: make([][]table.Request, len(b.shards)),
	}
	for i, t := range b.shards {
		h.hs[i] = t.NewHandle()
	}
	return h
}

// SetLatencyHook installs a completion callback on every shard handle; pass
// nil to disable.
func (h *BatchedHandle) SetLatencyHook(fn func(req table.Request, lat time.Duration)) {
	for _, sh := range h.hs {
		sh.SetLatencyHook(fn)
	}
}

// Pending returns the number of requests in flight across all shard
// pipelines, plus buffered completions not yet surfaced.
func (h *BatchedHandle) Pending() int {
	n := len(h.overflow)
	for _, sh := range h.hs {
		n += sh.Pending()
	}
	return n
}

// drainOverflow moves buffered completions into resps; returns the new nresp.
func (h *BatchedHandle) drainOverflow(resps []table.Response, nresp int) int {
	n := copy(resps[nresp:], h.overflow)
	if n > 0 {
		h.overflow = h.overflow[:copy(h.overflow, h.overflow[n:])]
	}
	return nresp + n
}

// sink delivers freshly gathered completions: into resps while it has room,
// into the overflow queue after.
func (h *BatchedHandle) sink(got []table.Response, resps []table.Response, nresp int) int {
	n := copy(resps[nresp:], got)
	if n < len(got) {
		h.overflow = append(h.overflow, got[n:]...)
	}
	return nresp + n
}

// Submit scatters reqs across the shard-local pipelines and gathers whatever
// completions they produce. It always consumes all of reqs — completions the
// caller's resps cannot hold are buffered and surface on the next Submit or
// Flush — so nreq == len(reqs) and nresp ≤ len(resps). Completions arrive
// out of order across shards as well as within one; match them to requests
// by the caller-assigned ID, exactly as with a single-table handle.
func (h *BatchedHandle) Submit(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	nresp = h.drainOverflow(resps, 0)
	for i := range h.scratch {
		h.scratch[i] = h.scratch[i][:0]
	}
	for _, r := range reqs {
		s := h.b.shardOf(r.Key)
		h.scratch[s] = append(h.scratch[s], r)
	}
	for s, batch := range h.scratch {
		sh := h.hs[s]
		for len(batch) > 0 {
			// The shard handle consumes fewer than len(batch) requests only
			// when the gather buffer fills; loop with a drained buffer until
			// the shard accepts everything.
			n, got := sh.Submit(batch, h.gather[:])
			nresp = h.sink(h.gather[:got], resps, nresp)
			batch = batch[n:]
		}
	}
	return len(reqs), nresp
}

// Flush drains every shard pipeline. done reports whether all pipelines are
// empty and every buffered completion has been delivered; like the
// single-table Flush, call it in a loop with fresh resps space until done.
func (h *BatchedHandle) Flush(resps []table.Response) (nresp int, done bool) {
	nresp = h.drainOverflow(resps, 0)
	done = len(h.overflow) == 0
	for _, sh := range h.hs {
		for sh.Pending() > 0 {
			got, d := sh.Flush(h.gather[:])
			nresp = h.sink(h.gather[:got], resps, nresp)
			if d {
				break
			}
		}
	}
	if len(h.overflow) > 0 {
		done = false
	}
	return nresp, done
}

// Stats sums the per-shard handle counters.
func (h *BatchedHandle) Stats() dramhit.Stats {
	var s dramhit.Stats
	for _, sh := range h.hs {
		t := sh.Stats()
		s.Gets += t.Gets
		s.Puts += t.Puts
		s.Upserts += t.Upserts
		s.Deletes += t.Deletes
		s.Hits += t.Hits
		s.Failed += t.Failed
		s.Reprobes += t.Reprobes
		s.Lines += t.Lines
		s.KeyLines += t.KeyLines
		s.CASAttempts += t.CASAttempts
	}
	return s
}

// NewSync returns a synchronous table.Map adapter routing over per-shard
// dramhit.Sync instances — the conformance-suite face of Batched.
func (b *Batched) NewSync() *BatchedSync {
	s := &BatchedSync{b: b, syncs: make([]*dramhit.Sync, len(b.shards))}
	for i, t := range b.shards {
		s.syncs[i] = t.NewSync()
	}
	return s
}

// BatchedSync adapts Batched to table.Map by routing each synchronous call
// to the owning shard's dramhit.Sync.
type BatchedSync struct {
	b     *Batched
	syncs []*dramhit.Sync
}

func (s *BatchedSync) Get(key uint64) (uint64, bool) { return s.syncs[s.b.shardOf(key)].Get(key) }
func (s *BatchedSync) Put(key, value uint64) bool    { return s.syncs[s.b.shardOf(key)].Put(key, value) }
func (s *BatchedSync) Upsert(key, d uint64) (uint64, bool) {
	return s.syncs[s.b.shardOf(key)].Upsert(key, d)
}
func (s *BatchedSync) Delete(key uint64) bool { return s.syncs[s.b.shardOf(key)].Delete(key) }
func (s *BatchedSync) Len() int               { return s.b.Len() }
func (s *BatchedSync) Cap() int               { return s.b.Cap() }

// Clone returns a fresh adapter over the same shards (each with its own
// shard handles), for the concurrent conformance tests.
func (s *BatchedSync) Clone() table.Map { return s.b.NewSync() }

var _ table.Map = (*BatchedSync)(nil)
