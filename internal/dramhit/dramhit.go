// Package dramhit implements the DRAMHiT hash table (Narayanan et al.,
// EuroSys 2023): a lock-free open-addressing table with linear probing whose
// interface is asynchronous — callers submit batches of requests and collect
// batches of possibly out-of-order responses — and whose execution never
// touches unprefetched memory.
//
// Each accessor goroutine owns a Handle with a bounded FIFO queue of pending
// requests (the prefetch queue, Algorithm 1 of the paper). Submitting a
// request hashes the key, computes the home slot, issues a prefetch for its
// cache line and the one after it, and enqueues. Once PrefetchWindow
// requests have accumulated, the oldest request's lines are cache-resident,
// so the handle drains the queue head: it probes only within that prefetched
// pair, walking from the first line into the second in place, and a probe
// that must leave the pair issues a new prefetch and re-enqueues the request
// (a reprobe). Requests therefore complete out of order; every response
// carries the caller's opaque request ID.
//
// A prefetch is a real one — PREFETCHT0 or PRFM through the assembly stub
// simd.PrefetchPair — so Submit never waits for table memory; under -tags
// purego and on other architectures it is a no-op and the pipeline degrades
// to demand misses at drain time with identical results. The cycle-level
// reproduction of the paper's numbers lives in internal/simtable, where
// prefetch cost is modeled explicitly.
package dramhit

import (
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"

	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// DefaultPrefetchWindow is the number of in-flight requests a handle
// accumulates before it starts draining; the paper uses a window sized so
// that a DRAM-latency miss is fully covered by the submission of the
// following requests.
const DefaultPrefetchWindow = 16

// Config parameterizes a Table.
type Config struct {
	// Slots is the capacity of the table (number of 16-byte slots).
	Slots uint64
	// PrefetchWindow is the pipeline depth per handle; 0 selects
	// DefaultPrefetchWindow. A window of 1 degenerates to synchronous
	// operation (used by the batching ablation, Figure 7).
	PrefetchWindow int
	// Observe, when non-nil, attaches the table to the observability
	// registry: each handle registers a padded counter shard (published at
	// Submit/Flush boundaries, so the hot path stays free of shared-line
	// atomics) and a hot-key sketch fed by every request, and samples 1
	// request in the registry's TraceSampleN: its per-op-class latency and,
	// on the uint64 paths, its lifecycle in the registry's trace ring. Nil — the default — is bit-identical to an uninstrumented table
	// and adds no allocation or branch beyond a nil check.
	Observe *obs.Registry
	// Layout selects the physical layout, and with it the API the table
	// serves. The zero value (table.LayoutFlat) is the interleaved uint64
	// array: the uint64 API (Submit/Flush, Get, the batch helpers, Sync).
	// table.LayoutBucket stores the index as one-line buckets with in-cell
	// metadata over a log-structured KV arena and resizes itself: the
	// byte-string API (GetBytes/PutBytes/UpsertBytes/DeleteBytes and the
	// SubmitBytes ring). Calling the other layout's API panics. Governor
	// applies only to flat tables (the bucket engine owns its byte hash, probe
	// and ring), so New and NewView panic when a bucket config sets it.
	Layout table.Layout
	// Governor selects the execution mode of every handle, fixed at
	// construction. The zero value (table.GovernorOff) lets the table
	// choose: New runs direct mode when the slot array (Slots × 16 bytes)
	// is at most 4 MiB (2^18 slots) and the prefetch pipeline when it is
	// larger; NewView always runs the pipeline. table.GovernorDirect forces direct mode at
	// any size. Direct mode is the execution for a cache-resident table,
	// where no miss is left for a prefetch window to hide: Submit bypasses
	// the ring and executes a folklore-style synchronous probe inline,
	// answering in submission order (one branch on a handle flag, zero
	// allocation). Table.Direct reports the mode chosen.
	Governor table.GovernorMode
}

// Table is the shared state of a DRAMHiT hash table. Create per-goroutine
// Handles with NewHandle; the Table itself holds no per-caller state and all
// slot accesses are safe for concurrent use. Values equal to
// slotarr.InFlightValue are reserved.
//
// Storage is nreg uniform regions. A table made by New has one, which it
// owns; a view made by NewView runs the same handles over regions built and
// written elsewhere (dramhitp's single-writer partitions). A key's region and
// its home inside it both come from the one hash (hashfn.FastrangeSplit; on
// the bucket layout hashfn.ShardRange picks the region and the engine the
// bucket), and every ring entry records its region at submit, so no path asks
// how many regions there are: with one, the route is Fastrange(hv, size) as
// it always was.
type Table struct {
	regs    []region
	nreg    uint64 // len(regs)
	rslots  uint64 // slots per flat region; a probe chain never leaves its region
	size    uint64 // nreg * rslots
	side    *slotarr.SidePair
	window  int
	direct  bool // direct mode: handles skip the ring
	obsReg  *obs.Registry
	worker  string       // obs worker-shard name prefix
	nhandle atomic.Int64 // handles numbered under worker (NewHandle's)
}

// region is one uniform slice of the table's storage: a slot array on the
// flat layout, a self-resizing bucket index on the bucket layout.
//
// used and live count the flat region's claimed slots (tombstones included)
// and present entries. No op path writes them: a handle counts its claims
// and tombstones in its own fillDeltas and adds them here when its Submit or
// Flush returns (publishFill). Every request reads arr or bkt, so the
// counters still sit a cache line away from both, and from the next region's
// (TestHandlesShareNoLine): a publish then invalidates no probed line, and
// on a view the regions' writers (DRAMHiT-P's owners) share no written line.
type region struct {
	arr  *slotarr.Array
	bkt  *slotarr.BucketTable
	_    [48]byte
	used atomic.Int64
	live atomic.Int64
	_    [48]byte
}

// Regions is storage built and owned by another package — DRAMHiT-P's
// partitions — for NewView to run handles over: exactly one of Arrays (flat
// layout, each of Config.Slots/len slots) and Buckets (bucket layout, over
// one shared arena) is set. Side is the owner's reserved-key slots; Worker
// names the handles' obs worker shards.
type Regions struct {
	Arrays  []*slotarr.Array
	Buckets []*slotarr.BucketTable
	Side    *slotarr.SidePair
	Worker  string
}

// New creates a table from cfg: one region, built here and owned by the
// table. A flat table whose config leaves the execution mode to the table
// runs direct mode when its slot array is at most 4 MiB, and the prefetch
// ring otherwise (Config.Governor).
func New(cfg Config) *Table {
	if cfg.Slots == 0 {
		panic("dramhit: Config.Slots must be positive")
	}
	checkLayout(cfg)
	r := Regions{Side: new(slotarr.SidePair), Worker: "dramhit-h"}
	if cfg.Layout == table.LayoutBucket {
		r.Buckets = []*slotarr.BucketTable{slotarr.NewBucketTableSlots(cfg.Slots)}
	} else {
		r.Arrays = []*slotarr.Array{slotarr.New(cfg.Slots)}
		if cfg.Governor == table.GovernorOff && runsDirect(cfg.Slots) {
			cfg.Governor = table.GovernorDirect
		}
	}
	t := NewView(cfg, r)
	if t.obsReg != nil {
		t.obsReg.AddSource("dramhit", func() map[string]float64 {
			return map[string]float64{
				"fill":    t.Fill(),
				"live":    float64(t.Len()),
				"slots":   float64(t.Cap()),
				"window":  float64(t.Window()),
				"handles": float64(t.nhandle.Load()),
			}
		})
		t.obsReg.AddHeatmapSource("dramhit", t.Heatmap)
	}
	return t
}

// checkLayout panics when cfg is a LayoutBucket config that sets Governor:
// Governor shapes the flat table's uint64 ring, and a bucket table would
// accept and ignore it.
func checkLayout(cfg Config) {
	if cfg.Layout == table.LayoutBucket && cfg.Governor != table.GovernorOff {
		panic("dramhit: Config.Governor applies only to LayoutFlat tables; a LayoutBucket table owns its byte hash, probe and ring")
	}
}

// NewView creates a table over the regions r, which the caller built and
// keeps writing: cfg.Slots is their total capacity, cfg.Layout must name the
// kind r holds, and on the flat layout the writer must place keys by
// hashfn.City64, the hash every flat route takes. Handles of a view run the
// same ring as any other; what a view
// does not have is ownership: only operations the regions' write protocol
// admits from a given goroutine may be submitted through its handle
// (DRAMHiT-P's flat partitions: Gets from any goroutine, updates from the
// partition's owner only; its bucket partitions take every byte operation
// from any goroutine, since the engine's CAS protocol serializes writers).
func NewView(cfg Config, r Regions) *Table {
	checkLayout(cfg)
	w := cfg.PrefetchWindow
	if w == 0 {
		w = DefaultPrefetchWindow
	}
	if w < 1 {
		panic("dramhit: PrefetchWindow must be >= 1")
	}
	regs := make([]region, max(len(r.Arrays), len(r.Buckets)))
	for i := range r.Arrays {
		regs[i].arr = r.Arrays[i]
	}
	for i := range r.Buckets {
		regs[i].bkt = r.Buckets[i]
	}
	nreg := uint64(len(regs))
	return &Table{
		regs:   regs,
		nreg:   nreg,
		rslots: cfg.Slots / nreg,
		size:   cfg.Slots / nreg * nreg,
		side:   r.Side,
		window: w,
		direct: cfg.Governor == table.GovernorDirect,
		obsReg: cfg.Observe,
		worker: r.Worker,
	}
}

// Layout returns the physical layout the table was constructed with.
func (t *Table) Layout() table.Layout {
	if t.Bucket() != nil {
		return table.LayoutBucket
	}
	return table.LayoutFlat
}

// Bucket returns the bucket-layout engine (of the first region), or nil on a
// flat table (benchmarks read its growth and stash statistics).
func (t *Table) Bucket() *slotarr.BucketTable { return t.regs[0].bkt }

// wrongAPI is requireLayout's panic message, by the layout the called API
// needs.
var wrongAPI = [...]string{
	table.LayoutFlat:   "dramhit: the uint64 API needs a LayoutFlat table; a LayoutBucket table serves the byte API (GetBytes/PutBytes/UpsertBytes/DeleteBytes, OnByteComplete/SubmitBytes/FlushBytes)",
	table.LayoutBucket: "dramhit: the byte-string API needs a LayoutBucket table (variable-length keys and values live in its arena); a LayoutFlat table serves the uint64 API",
}

// requireLayout panics unless the handle's table has layout want: a flat
// table serves the uint64 API, a bucket table the byte API. Each entry point
// checks once per call, never per request.
func (h *Handle) requireLayout(want table.Layout) {
	if (h.bhs != nil) != (want == table.LayoutBucket) {
		panic(wrongAPI[want])
	}
}

// Len returns the number of live entries. Like Fill and RegionFull, it is
// exact while no handle is inside Submit or Flush; during a call it lags by at
// most the claims and deletes that call has completed so far.
func (t *Table) Len() int {
	n := 0
	if t.Bucket() == nil {
		for i := range t.regs {
			n += int(t.regs[i].live.Load())
		}
		return n + t.side.Count()
	}
	for i := range t.regs {
		n += t.regs[i].bkt.Len()
	}
	return n
}

// Cap returns the slot capacity (the current capacity on a self-resizing
// bucket table).
func (t *Table) Cap() int {
	if t.Bucket() == nil {
		return int(t.size)
	}
	n := 0
	for i := range t.regs {
		n += t.regs[i].bkt.Cap()
	}
	return n
}

// Fill returns claimed slots (including tombstones) over capacity.
func (t *Table) Fill() float64 {
	var claimed int64
	if t.Bucket() == nil {
		for i := range t.regs {
			claimed += t.regs[i].used.Load()
		}
		return float64(claimed) / float64(t.size)
	}
	for i := range t.regs {
		claimed += t.regs[i].bkt.Claimed()
	}
	return float64(claimed) / float64(t.Cap())
}

// RegionFull reports whether flat region r has no empty slot left, so that
// every insert routed to it fails. DRAMHiT-P's owners read it for the
// partitions they write.
func (t *Table) RegionFull(r int) bool {
	return uint64(t.regs[r].used.Load()) >= t.rslots
}

// Window returns the configured prefetch window.
func (t *Table) Window() int { return t.window }

// Direct reports whether the table's handles run direct mode rather than the
// prefetch ring (Config.Governor).
func (t *Table) Direct() bool { return t.direct }

// pending is one in-flight request on a handle's prefetch queue: built in its
// ring slot at Submit, probed there, and moved only by a reprobe.
type pending struct {
	req     table.Request
	idx     uint64 // next slot to inspect
	probes  uint64 // slots inspected so far (full-table bound)
	startNS int64  // submission time, set only on a sampled request
	trace   uint64 // lifecycle trace id; 0 = not sampled
	part    uint32 // region the key routes to; idx is local to it
}

// Stats accumulates per-handle observability counters.
type Stats struct {
	// Completed counts finished operations by kind.
	Gets, Puts, Upserts, Deletes uint64
	// Hits counts Gets that found their key and Deletes that removed one.
	Hits uint64
	// Failed counts Puts/Upserts rejected because the table was full: a flat
	// table's slots, or a bucket table's arena (no room for the record).
	Failed uint64
	// Reprobes counts line crossings: a probe walking from the first line of
	// its prefetched pair into the second, or re-enqueued with a fresh
	// prefetch when it leaves the pair.
	Reprobes uint64
	// Lines counts cache lines touched (1 + reprobes per op); the paper
	// reports Lines/Ops ≈ 1.3 at 75% fill.
	Lines uint64
	// KeyLines counts line visits whose key lanes were consulted. A flat
	// probe loads the key lanes of every line it visits, so on a table of
	// more than one line, with no reserved keys (side slots, which Lines
	// counts and no key line serves) and no lost claim races, KeyLines
	// equals Lines. On a bucket table it counts home-bucket loads.
	KeyLines uint64
	// TagSkips, CombinedUpserts, PiggybackedGets and ForwardedGets always
	// read 0: the flat layout has no tag sidecar to skip a line from, and the
	// ring executes every request by its own probe. The fields stay only
	// because the gated benchmark harness (benchmark/tbl.go), which is kept
	// fixed so runs stay comparable, reads them.
	TagSkips, CombinedUpserts, PiggybackedGets, ForwardedGets uint64
	// CASAttempts counts atomic updates issued against slot words (key
	// claim/delete CASes plus value stores and adds).
	CASAttempts uint64
}

// Ops returns the total completed operation count.
func (s *Stats) Ops() uint64 { return s.Gets + s.Puts + s.Upserts + s.Deletes }

// Handle is a single-goroutine accessor holding the prefetch queue. Handles
// must not be shared between goroutines; create one per worker. Any number
// of handles may operate on the same Table concurrently.
type Handle struct {
	t *Table
	// regs, nreg and rslots are the table's (fixed at construction), held
	// here so that routing a request and finding its entry's storage do not
	// go through t.
	regs   []region
	nreg   uint64
	rslots uint64
	// fill is this handle's share of each region's used and live counts that
	// it has not yet published: one entry per region, on whole cache lines
	// of its own (nil on a bucket table). filled reports a nonzero entry.
	fill   []fillDelta
	filled bool
	q      []pending // ring buffer, len power of two; nil on a bucket table
	mask   int       // ring capacity - 1, shared with the byte ring's byteQ
	head   int       // enqueue position
	tail   int       // dequeue position (oldest)
	window int
	direct bool // Submit bypasses the ring (direct mode)

	// bhs holds the bucket-layout engine views the byte API runs on, one per
	// region (non-nil iff the table is LayoutBucket): each owns an arena
	// writer/pin and the engine-level probe counters that Stats folds into
	// KeyLines/Reprobes.
	bhs []*slotarr.BucketHandle

	stats Stats

	// Observability (all nil/zero when the table has no registry — the hot
	// path then pays exactly one predictable nil check per site). The handle
	// accumulates into its plain stats fields as always and obsPublish
	// copies them into the padded shard at Submit/Flush boundaries, so
	// observe-on adds no per-op shared-line traffic.
	obsw      *obs.Worker
	trace     *obs.TraceRing
	sampleN   int // sample sees 1 request in sampleN
	sampleCnt int
	pubCnt    int    // Submit calls since the last throttled publish
	occMax    uint64 // high-water pipeline occupancy since creation

	// Byte pipeline (netbatch.go): the ring of in-flight byte-string
	// requests whose home bucket lines were prefetched at SubmitBytes, and
	// the completion callback that replaces per-op response channels on the
	// network path. Nil until OnByteComplete arms it (bucket layout only).
	byteQ  []bytePending
	bhead  int
	btail  int
	onByte func(ByteCompletion)

	// bstaged is the byte ring's stage-two cursor (DESIGN.md §3.1.8):
	// positions below it have had their candidate records prefetched.
	// stageHook, set only by tests, sees every such prefetch. The flat layout
	// touches neither, so they sit behind everything its Submit reads.
	bstaged   int
	stageHook func(hv uint64)

	// The handle is written on every request. Its size is a whole number of
	// cache lines (seven; TestHandlesShareNoLine pins it), which puts it in a
	// line-multiple allocation size class, so no other object — the next
	// handle made, typically — shares its lines. Pad here if a field change
	// breaks that.
	_ [56]byte
}

// NewHandle creates an accessor for the table. With a registry attached, it
// publishes into the worker shard named by the table's prefix and the
// handle's number.
func (t *Table) NewHandle() *Handle { return t.NewNamedHandle("") }

// NewNamedHandle is NewHandle whose obs worker shard is named worker, not
// numbered under the table's prefix; "" numbers it as NewHandle does. A view
// gives handles with another role their own names (DRAMHiT-P's owners).
func (t *Table) NewNamedHandle(worker string) *Handle {
	capacity := 1
	for capacity < t.window+1 {
		capacity <<= 1
	}
	h := &Handle{
		t:      t,
		regs:   t.regs,
		nreg:   t.nreg,
		rslots: t.rslots,
		mask:   capacity - 1,
		window: t.window,
		direct: t.direct,
	}
	if t.Bucket() != nil {
		// The byte API's engine views; OnByteComplete allocates the byte ring.
		h.bhs = make([]*slotarr.BucketHandle, len(t.regs))
		for i := range t.regs {
			h.bhs[i] = t.regs[i].bkt.NewHandle()
		}
	} else {
		// The ring's and the fill counts' backing arrays are rounded up to
		// whole cache lines for the reason Handle is a whole number of them:
		// handles made back to back would otherwise have them meet mid-line.
		h.q = make([]pending, capacity, wholeLines(capacity, unsafe.Sizeof(pending{})))
		h.fill = make([]fillDelta, len(t.regs), wholeLines(len(t.regs), unsafe.Sizeof(fillDelta{})))
	}
	if t.obsReg != nil {
		if worker == "" {
			worker = t.worker + strconv.FormatInt(t.nhandle.Add(1)-1, 10)
		}
		h.obsw = t.obsReg.HotWorker(worker)
		h.trace = t.obsReg.Trace()
		h.sampleN = t.obsReg.TraceSampleN()
	}
	return h
}

// wholeLines returns the least capacity of at least n elements of size bytes
// that fills whole cache lines.
func wholeLines(n int, size uintptr) int {
	for uintptr(n)*size%table.CacheLineBytes != 0 {
		n++
	}
	return n
}

// Stats returns a copy of the handle's counters.
func (h *Handle) Stats() Stats { return h.stats }

// Pending returns the number of requests currently in the pipeline.
func (h *Handle) Pending() int { return h.head - h.tail }

// enqueue publishes the entry its caller has just written into the head
// slot — Submit constructs a new request there, reprobe moves the queue-head
// request there — by advancing head. The slot is the entry's only home:
// nothing is copied in or out.
func (h *Handle) enqueue() {
	p := &h.q[h.head&h.mask]
	h.head++
	if p.trace != 0 {
		// Every enqueue is either a request's first entry into the pipeline
		// (probes == 0: Submit) or a re-entry after leaving its line pair
		// (Reprobe); the discrimination here keeps the drains free of trace
		// calls.
		if p.probes == 0 {
			h.trace.Record(p.trace, obs.EvSubmit, uint8(p.req.Op), p.req.Key, 0)
		} else {
			h.trace.Record(p.trace, obs.EvReprobe, uint8(p.req.Op), p.req.Key, uint32(p.probes))
		}
	}
}

// reprobe sends the queue-head request p to the back of the queue behind a
// fresh prefetch of the line pair its drain advanced the probe cursor (idx,
// probes) to; the cursor is stored back here, once. The move is the only
// copy an entry ever sees. Source and destination are distinct slots: the
// ring holds at least window+1 entries and at most window are pending, so
// the head slot is never the tail slot.
func (h *Handle) reprobe(p *pending, idx, probes uint64) {
	p.idx, p.probes = idx, probes
	h.tail++
	h.regs[p.part].arr.Prefetch(idx)
	h.stats.Reprobes++
	h.stats.Lines++
	h.q[h.head&h.mask] = *p
	h.enqueue()
}

// walkOn moves a drain whose probe has just left its line on to the line idx
// starts. A visit is a line pair, prefetched together (slotarr.Array.Prefetch):
// from the pair's first line the probe walks into the second in place; from
// the second, or across the wrap to slot 0 (which is not the prefetched
// neighbour), it reprobes. Either way the crossing counts one Reprobe and one
// Line, so no counter depends on where a visit ends. It reports whether the
// drain goes on in place.
func (h *Handle) walkOn(p *pending, idx, probes uint64, walked bool) bool {
	if walked || idx == 0 {
		h.reprobe(p, idx, probes)
		return false
	}
	h.stats.Reprobes++
	h.stats.Lines++
	return true
}

// Submit feeds reqs into the pipeline and collects completed responses into
// resps. It returns the number of requests consumed and the number of
// responses written. nreq < len(reqs) only when resps ran out of space for
// completions that had to drain first; call Submit again with the remaining
// requests and a fresh (or re-sliced) response buffer. Only Get operations
// produce responses; Put, Upsert and Delete complete silently (as in the
// paper, where updates issued through the batched interface return no
// result).
//
// Ordering: requests complete out of order. Two requests of one handle for
// the same key probe the same lines in the same order, so the earlier one
// completes first unless another handle writes that key in between; when
// read-your-writes must hold across handles, Flush between the write and the
// read. A direct-mode table's handles skip the ring (direct.go): they
// complete every request inline, in submission order, and leave nothing
// pending.
func (h *Handle) Submit(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	h.requireLayout(table.LayoutFlat)
	if h.obsw != nil {
		defer h.obsPublishThrottled()
	}
	if h.direct {
		nreq, nresp = h.submitDirect(reqs, resps)
	} else {
		nreq, nresp = h.submitRing(reqs, resps)
	}
	if h.filled {
		h.publishFill()
	}
	return nreq, nresp
}

// submitRing is Submit's pipelined body: it enqueues reqs, draining the
// oldest requests whenever the window is full.
func (h *Handle) submitRing(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	for ; nreq < len(reqs); nreq++ {
		for h.Pending() >= h.window {
			if h.processOldest(resps, &nresp) {
				return nreq, nresp
			}
		}
		req := &reqs[nreq]
		// The request is built in the head slot and stays there until it
		// completes or reprobes. The slot is taken only now: the back-pressure
		// loop above may have re-enqueued a reprobing request at the old head.
		// Every field is assigned, one store each — a composite literal would
		// be built on the stack and copied in.
		p := &h.q[h.head&h.mask]
		p.req = *req
		p.probes, p.startNS, p.trace = 0, 0, 0
		// Sample after the backpressure loop so a blocked-and-resubmitted
		// request is seen once, at the submission that actually enqueues.
		if h.obsw != nil {
			p.startNS, p.trace = h.sampleTraced(req.Key)
		}
		part, idx := hashfn.FastrangeSplit(hashfn.City64(req.Key), h.nreg, h.rslots)
		p.part, p.idx = uint32(part), idx
		// Submit loads no table memory: it only starts the fetch of the home
		// line pair the drain will probe a window from now.
		h.regs[part].arr.Prefetch(idx)
		h.enqueue()
		h.stats.Lines++
	}
	return nreq, nresp
}

// Flush drains the pipeline, writing completions into resps. It returns the
// number of responses written and whether the pipeline is now empty; when
// done is false the response buffer filled up and Flush must be called
// again. Typically called once at the end of a dataset (paper §3.1).
func (h *Handle) Flush(resps []table.Response) (nresp int, done bool) {
	if h.obsw != nil {
		defer h.obsPublish()
	}
	for h.Pending() > 0 {
		if h.processOldest(resps, &nresp) {
			break
		}
	}
	if h.filled {
		h.publishFill()
	}
	return nresp, h.Pending() == 0
}

// processOldest executes the oldest pending request, in its ring slot, over
// its current (prefetched) line pair. If the request resolves it completes,
// possibly writing a response; if it must leave the pair it is re-enqueued
// with a new prefetch. blocked reports that the oldest request is a Get and
// resps has no room for its response — the request is left, untouched, at
// the queue head.
//
// The operation kind is dispatched exactly once here: each SWAR drain (see
// swar.go) contains the line-granular kernel loop specialized for its op, so
// the probe loop itself carries no per-slot op switch.
func (h *Handle) processOldest(resps []table.Response, nresp *int) (blocked bool) {
	p := &h.q[h.tail&h.mask]
	if p.req.Op == table.Get && *nresp >= len(resps) {
		return true
	}
	if p.trace != 0 {
		h.trace.Record(p.trace, obs.EvProbe, uint8(p.req.Op), p.req.Key, uint32(p.probes))
	}

	// Reserved keys bypass the array entirely (side slots are always
	// cache-hot); resolve immediately.
	if s := h.t.side.For(p.req.Key); s != nil {
		h.tail++
		h.completeSide(s, &p.req, p.startNS, p.trace, resps, nresp)
		return false
	}

	switch p.req.Op {
	case table.Get:
		h.drainGet(p, resps, nresp)
	case table.Delete:
		h.drainDelete(p)
	default:
		h.drainUpdate(p, resps, nresp)
	}
	return false
}

// fillDelta is one region's claims (used) and net insertions (live) that a
// handle has made since it last published them.
type fillDelta struct{ used, live int64 }

// claim tries to insert key with value v into the empty slot i of region
// part's array arr, counting its CAS and value store; false means a racing
// insert took the slot first. The slot's two words are the only shared words
// it writes: the region's counts advance in the handle's fill.
func (h *Handle) claim(part uint32, arr *slotarr.Array, i, key, v uint64) bool {
	h.stats.CASAttempts++
	if !arr.CASKey(i, table.EmptyKey, key) {
		return false
	}
	h.stats.CASAttempts++
	arr.StoreValue(i, v)
	d := &h.fill[part]
	d.used++
	d.live++
	h.filled = true
	return true
}

// tombstone deletes key from slot i of region part's array arr, reporting
// whether this call removed it (a concurrent Delete of the same key may have
// won).
func (h *Handle) tombstone(part uint32, arr *slotarr.Array, i, key uint64) bool {
	if !arr.CASKey(i, key, table.TombstoneKey) {
		return false
	}
	h.fill[part].live--
	h.filled = true
	return true
}

// publishFill adds the handle's unpublished claims and deletes to their
// regions' counters and clears them. Submit and Flush call it on their way
// out, once per call and only when filled: a bulk load pays one atomic add
// per counter per batch, not two per insert, and a Get-only call nothing.
func (h *Handle) publishFill() {
	for i := range h.fill {
		d := &h.fill[i]
		if d.used != 0 {
			h.regs[i].used.Add(d.used)
		}
		if d.live != 0 {
			h.regs[i].live.Add(d.live)
		}
		*d = fillDelta{}
	}
	h.filled = false
}

// completeSide resolves a reserved-key request against its side slot. It
// takes the request's fields, not a ring entry: direct mode has none.
func (h *Handle) completeSide(s *slotarr.SideSlot, req *table.Request, startNS int64, trace uint64, resps []table.Response, nresp *int) {
	switch req.Op {
	case table.Get:
		v, ok := s.Get()
		resps[*nresp] = table.Response{ID: req.ID, Value: v, Found: ok}
		*nresp++
		h.finishReq(req, startNS, trace, table.Get, ok)
	case table.Put:
		s.Put(req.Value)
		h.finishReq(req, startNS, trace, table.Put, true)
	case table.Upsert:
		s.Upsert(req.Value)
		h.finishReq(req, startNS, trace, table.Upsert, true)
	case table.Delete:
		h.finishReq(req, startNS, trace, table.Delete, s.Delete())
	}
}

// retire completes the queue-head request p, resolved with value v and hit
// status found (fail additionally marks a table-full Put/Upsert), and pops
// it. A Get writes its response: processOldest has checked there is room.
func (h *Handle) retire(p *pending, op table.Op, v uint64, found, fail bool, resps []table.Response, nresp *int) {
	h.tail++
	if op == table.Get {
		resps[*nresp] = table.Response{ID: p.req.ID, Value: v, Found: found}
		*nresp++
	}
	if fail {
		h.stats.Failed++
	}
	h.finishReq(&p.req, p.startNS, p.trace, op, found)
}

// completeFailed resolves a request whose probe exhausted the table: a Get or
// Delete misses, a Put or Upsert fails because the table is full.
func (h *Handle) completeFailed(p *pending, resps []table.Response, nresp *int) {
	fail := p.req.Op == table.Put || p.req.Op == table.Upsert
	h.retire(p, p.req.Op, 0, false, fail, resps, nresp)
}

// countOp advances the per-op completion counters — the whole cost of
// completing a request on an unobserved handle (the direct path calls it
// instead of finishReq to skip finishReq's checks).
func (h *Handle) countOp(op table.Op, hit bool) {
	switch op {
	case table.Get:
		h.stats.Gets++
	case table.Put:
		h.stats.Puts++
	case table.Upsert:
		h.stats.Upserts++
	case table.Delete:
		h.stats.Deletes++
	}
	if hit && (op == table.Get || op == table.Delete) {
		h.stats.Hits++
	}
}

// sample is an observed handle's per-request step, taken at every request
// site of either layout behind that site's one h.obsw != nil check, so an
// unobserved handle pays that check and nothing else. It offers the key (a
// byte key's hash) to the hot-key sketch, and samples every sampleN-th
// request: a sampled request's return is its latency stamp, the clock, and
// any other's is 0. A completion with a stamp records opLatency.
func (h *Handle) sample(key uint64) int64 {
	h.obsw.Hot.OfferSampled(key)
	if h.sampleCnt++; h.sampleCnt < h.sampleN {
		return 0
	}
	h.sampleCnt = 0
	return clockNS()
}

// sampleTraced is sample on the uint64 paths, which trace: a sampled request
// also gets a trace id when the registry has a ring.
func (h *Handle) sampleTraced(key uint64) (startNS int64, trace uint64) {
	if startNS = h.sample(key); startNS != 0 && h.trace != nil {
		trace = h.trace.NextID()
	}
	return startNS, trace
}

// clockNS is sample's clock read.
func clockNS() int64 { return time.Now().UnixNano() }

// opLatency records a stamped request's latency in its op-class histogram.
func (h *Handle) opLatency(op table.Op, hit bool, startNS int64) {
	h.obsw.Op[obs.OpClass(op, hit)].Record(uint64(clockNS() - startNS))
}

// finishReq completes a request: trace event, counters, op latency. It
// takes the request's fields, not a ring entry: direct mode has none.
func (h *Handle) finishReq(req *table.Request, startNS int64, trace uint64, op table.Op, hit bool) {
	if trace != 0 {
		var arg uint32
		if hit {
			arg = 1
		}
		h.trace.Record(trace, obs.EvComplete, uint8(op), req.Key, arg)
	}
	h.countOp(op, hit)
	if startNS != 0 {
		h.opLatency(op, hit, startNS)
	}
}

// obsPublishEvery throttles Submit-side publishes: small batches (the
// common batch-16 streaming shape) would otherwise pay ~20 atomic stores
// per 16 ops, which alone exceeds the ≤2% observe-on budget. Every 64th
// Submit — plus every Flush, so quiescent handles are always exact —
// bounds the publish cost at a fraction of a store per op while scrapes
// still see values at most one window behind.
const obsPublishEvery = 64

// noteOcc returns the occupancy of the handle's ring (a handle uses only its
// layout's ring, so the other reads 0) and raises the high-water mark to it.
func (h *Handle) noteOcc() uint64 {
	occ := uint64(h.Pending() + h.PendingBytes())
	h.occMax = max(h.occMax, occ)
	return occ
}

// obsPublishThrottled tracks the occupancy high-water cheaply on every
// Submit and synchronous byte op, and forwards one call in obsPublishEvery to
// obsPublish.
func (h *Handle) obsPublishThrottled() {
	h.noteOcc()
	if h.pubCnt++; h.pubCnt >= obsPublishEvery {
		h.pubCnt = 0
		h.obsPublish()
	}
}

// obsPublish copies the handle's plain counters into its padded registry
// shard and refreshes the pipeline gauges. Called at Flush exit and every
// obsPublishEvery-th Submit (one batch, never one op), so the amortized
// cost is a fraction of an uncontended atomic store per op — this is what
// keeps observe-on inside the ≤2% overhead budget while scrapes still see
// near-live values.
func (h *Handle) obsPublish() {
	w := h.obsw
	s := &h.stats
	w.Store(obs.CGets, s.Gets)
	w.Store(obs.CPuts, s.Puts)
	w.Store(obs.CUpserts, s.Upserts)
	w.Store(obs.CDeletes, s.Deletes)
	w.Store(obs.CHits, s.Hits)
	w.Store(obs.CFailed, s.Failed)
	w.Store(obs.CReprobes, s.Reprobes)
	w.Store(obs.CLines, s.Lines)
	w.Store(obs.CKeyLines, s.KeyLines)
	w.Store(obs.CCASAttempts, s.CASAttempts)
	occ := h.noteOcc()
	w.SetGauge(obs.GWindowOcc, occ)
	w.SetGauge(obs.GWindowMax, h.occMax)
}
