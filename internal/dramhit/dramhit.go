// Package dramhit implements the DRAMHiT hash table (Narayanan et al.,
// EuroSys 2023): a lock-free open-addressing table with linear probing whose
// interface is asynchronous — callers submit batches of requests and collect
// batches of possibly out-of-order responses — and whose execution never
// touches unprefetched memory.
//
// Each accessor goroutine owns a Handle with a bounded FIFO queue of pending
// requests (the prefetch queue, Algorithm 1 of the paper). Submitting a
// request hashes the key, computes the home slot, issues a prefetch for its
// cache line and enqueues. Once PrefetchWindow requests have accumulated,
// the oldest request's line is guaranteed to be cache-resident, so the
// handle drains the queue head: it probes only within the already-prefetched
// line, and a probe that must cross into the next line issues a new prefetch
// and re-enqueues the request (a reprobe). Requests therefore complete out
// of order; every response carries the caller's opaque request ID.
//
// A prefetch is a real one — PREFETCHT0 or PRFM through the assembly stub
// simd.Prefetch — so Submit never waits for table memory; under -tags purego
// and on other architectures it is a no-op and the pipeline degrades to
// demand misses at drain time with identical results. The cycle-level
// reproduction of the paper's numbers lives in internal/simtable, where
// prefetch cost is modeled explicitly.
package dramhit

import (
	"strconv"
	"time"

	"dramhit/internal/governor"
	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"

	"sync/atomic"
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
	// Hash overrides the hash function; nil selects hashfn.City64.
	// hashfn.CRC64 matches the paper's CRC32 configuration.
	Hash func(uint64) uint64
	// ProbeKernel selects how the drain probes a resident cache line. The
	// zero value (table.KernelSWAR) snapshots the whole line and runs the
	// lane-parallel branch-free kernel of internal/simd; table.KernelScalar
	// keeps the slot-by-slot loop for ablation and A/B benchmarks.
	ProbeKernel table.ProbeKernel
	// ProbeFilter selects whether probes consult the packed tag-fingerprint
	// sidecar before loading a line's key lanes. The zero value
	// (table.FilterTags) allocates the sidecar and gates every SWAR drain on
	// it; table.FilterNone keeps the unfiltered probe as the A/B baseline.
	// The filter is line-granular and accelerates only KernelSWAR; a
	// KernelScalar table is forced to FilterNone.
	ProbeFilter table.ProbeFilter
	// Combining selects whether Submit merges a request whose key already
	// has a pending request in the handle's prefetch queue instead of
	// enqueueing it. The zero value (table.CombineOn) coalesces duplicate
	// upserts, piggybacks duplicate Gets on one probe, and forwards
	// Get-after-Put/Upsert from the in-flight value; table.CombineOff keeps
	// the one-request-one-probe pipeline as the A/B baseline. Combining is
	// kernel- and filter-independent: the merge decision reads only the
	// handle's own ring, never the table.
	Combining table.Combining
	// Observe, when non-nil, attaches the table to the observability
	// registry: each handle registers a padded counter shard (published at
	// Submit/Flush boundaries, so the hot path stays free of shared-line
	// atomics) and samples request lifecycles into the registry's trace
	// ring. Nil — the default — is bit-identical to an uninstrumented table
	// and adds no allocation or branch beyond a nil check.
	Observe *obs.Registry
	// Layout selects the physical layout, and with it the API the table
	// serves. The zero value (table.LayoutFlat) is the interleaved uint64
	// array with the optional tag sidecar: the uint64 API (Submit/Flush, Get,
	// the batch helpers, Sync). table.LayoutBucket stores the index as
	// one-line buckets with in-cell metadata over a log-structured KV arena
	// and resizes itself: the byte-string API (GetBytes/PutBytes/UpsertBytes/
	// DeleteBytes and the SubmitBytes ring). Calling the other layout's API
	// panics. Hash, ProbeKernel, ProbeFilter, Combining and Governor apply
	// only to flat tables; the bucket engine owns its byte hash and keeps its
	// fingerprints in-cell.
	Layout table.Layout
	// Governor selects the adaptive pipeline controller. The zero value
	// (table.GovernorOff) runs the statically configured pipeline,
	// bit-identical to a governorless build. table.GovernorAuto attaches the
	// epoch-based hill-climber of internal/governor: handles feed it their
	// own counters and re-read its packed decision word at batch boundaries,
	// adapting window depth, combining, the probe filter, and the
	// direct/pipelined mode to the live workload. table.GovernorDirect pins
	// the degraded direct mode: Submit bypasses the ring and executes a
	// folklore-style synchronous probe inline (one branch on a cached mode
	// word, zero allocation). The governor can only toggle features the
	// table was constructed with — it never grows a tag sidecar or a
	// combining mirror at runtime.
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
	hash    func(uint64) uint64
	window  int
	kernel  table.ProbeKernel
	filter  table.ProbeFilter
	combine table.Combining
	obsReg  *obs.Registry
	worker  string       // obs worker-shard name prefix
	nhandle atomic.Int64 // handle counter for worker shard names
	gov     *governor.Governor

	// used and live are the only words of the table that the op paths write —
	// every insert and delete of every handle — while every request of every
	// handle reads hash and side above. A cache line of padding on either
	// side keeps the two apart wherever the allocator puts the struct;
	// sharing a line doubles the time of a two-handle bulk load.
	_    [64]byte
	used atomic.Int64
	live atomic.Int64
	_    [64]byte
}

// region is one uniform slice of the table's storage: a slot array on the
// flat layout, a self-resizing bucket index on the bucket layout.
type region struct {
	arr *slotarr.Array
	bkt *slotarr.BucketTable
}

// Regions is storage built and owned by another package — DRAMHiT-P's
// partitions — for NewView to run handles over: exactly one of Arrays (flat
// layout, each of Config.Slots/len slots) and Buckets (bucket layout, over
// one shared arena) is set. Side is the owner's reserved-key slots; Worker
// and GovernorSource name the handles' obs worker shards and the governor's
// obs source.
type Regions struct {
	Arrays  []*slotarr.Array
	Buckets []*slotarr.BucketTable
	Side    *slotarr.SidePair

	Worker, GovernorSource string
}

// EffectiveFilter returns the probe filter a table built from c runs: the
// filter is line-granular, so it exists only under the SWAR kernel on the
// flat layout. The scalar loop reads slot by slot — a tag sidecar would cost
// maintenance with nothing to gate — and the bucket engine keeps its
// fingerprints in-cell.
func (c Config) EffectiveFilter() table.ProbeFilter {
	if c.ProbeKernel == table.KernelScalar || c.Layout == table.LayoutBucket {
		return table.FilterNone
	}
	return c.ProbeFilter
}

// New creates a table from cfg: one region, built here and owned by the
// table.
func New(cfg Config) *Table {
	if cfg.Slots == 0 {
		panic("dramhit: Config.Slots must be positive")
	}
	r := Regions{Side: new(slotarr.SidePair), Worker: "dramhit-h", GovernorSource: "governor"}
	switch {
	case cfg.Layout == table.LayoutBucket:
		r.Buckets = []*slotarr.BucketTable{slotarr.NewBucketTableSlots(cfg.Slots)}
	case cfg.EffectiveFilter() == table.FilterTags:
		r.Arrays = []*slotarr.Array{slotarr.NewTagged(cfg.Slots)}
	default:
		r.Arrays = []*slotarr.Array{slotarr.New(cfg.Slots)}
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

// NewView creates a table over the regions r, which the caller built and
// keeps writing: cfg.Slots is their total capacity, cfg.Layout must name the
// kind r holds, and cfg.Hash (flat layout) must be the hash the writer places
// keys with. Handles of a view run the same ring as any other; what a view
// does not have is ownership: on the flat layout Len and Fill count what this
// table's own CAS drains claimed, so they are the caller's to report, and
// only operations the regions' write protocol admits from any goroutine may
// be submitted (DRAMHiT-P: Gets).
func NewView(cfg Config, r Regions) *Table {
	w := cfg.PrefetchWindow
	if w == 0 {
		w = DefaultPrefetchWindow
	}
	if w < 1 {
		panic("dramhit: PrefetchWindow must be >= 1")
	}
	h := cfg.Hash
	if h == nil {
		h = hashfn.City64
	}
	f := cfg.EffectiveFilter()
	regs := make([]region, max(len(r.Arrays), len(r.Buckets)))
	for i := range r.Arrays {
		regs[i].arr = r.Arrays[i]
	}
	for i := range r.Buckets {
		regs[i].bkt = r.Buckets[i]
	}
	nreg := uint64(len(regs))
	t := &Table{
		regs:    regs,
		nreg:    nreg,
		rslots:  cfg.Slots / nreg,
		size:    cfg.Slots / nreg * nreg,
		side:    r.Side,
		hash:    h,
		window:  w,
		kernel:  cfg.ProbeKernel,
		filter:  f,
		combine: cfg.Combining,
		obsReg:  cfg.Observe,
		worker:  r.Worker,
	}
	switch cfg.Governor {
	case table.GovernorAuto:
		t.gov = governor.New(governor.Config{
			Window:    w,
			Combining: cfg.Combining == table.CombineOn,
			Tags:      f == table.FilterTags,
			Direct:    true,
		})
	case table.GovernorDirect:
		t.gov = governor.NewForced(governor.Decision{
			Direct: true,
			Window: w,
			Filter: f == table.FilterTags,
		})
	}
	if t.obsReg != nil && t.gov != nil {
		t.obsReg.AddSource(r.GovernorSource, t.gov.Metrics)
		if tr := t.obsReg.Trace(); tr != nil {
			gov := t.gov
			gov.OnDecision = func(d governor.Decision, epoch uint64) {
				var mode uint8
				if d.Direct {
					mode = 1
				}
				// Key carries the packed decision word, Arg the epoch: one
				// ring event per published configuration change.
				tr.Record(tr.NextID(), obs.EvGovern, mode, governor.Pack(d, epoch), uint32(epoch))
			}
		}
	}
	return t
}

// Kernel returns the configured probe kernel.
func (t *Table) Kernel() table.ProbeKernel { return t.kernel }

// Filter returns the effective probe filter (FilterNone on scalar-kernel
// tables regardless of the configured value).
func (t *Table) Filter() table.ProbeFilter { return t.filter }

// Combining returns the configured in-window combining setting.
func (t *Table) Combining() table.Combining { return t.combine }

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

// Len returns the number of live entries.
func (t *Table) Len() int {
	if t.Bucket() == nil {
		return int(t.live.Load()) + t.side.Count()
	}
	n := 0
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
	if t.Bucket() == nil {
		return float64(t.used.Load()) / float64(t.size)
	}
	var claimed int64
	for i := range t.regs {
		claimed += t.regs[i].bkt.Claimed()
	}
	return float64(claimed) / float64(t.Cap())
}

// Window returns the configured prefetch window.
func (t *Table) Window() int { return t.window }

// pending is one in-flight request on a handle's prefetch queue. When
// combining is on, a pending may be a combine leader: chain links the
// piggybacked/forwarded Gets that share its probe, and an Upsert leader's
// req.Value carries the folded sum of every absorbed increment.
type pending struct {
	req     table.Request
	idx     uint64 // next slot to inspect
	probes  uint64 // slots inspected so far (full-table bound)
	startNS int64  // submission time, set only when latency tracking is on
	rval    uint64 // resolved value of a parked leader (state != stateProbing)
	trace   uint64 // lifecycle trace id; 0 = not sampled
	chain   int32  // 1+index into Handle.merged of the newest combined Get; 0 = none
	ngets   int32  // combined Gets on chain (bounds tryCombine's absorption)
	part    uint32 // region the key routes to; idx is local to it
	tag     uint8  // key's tag fingerprint (table.TagOf of the full hash)
	state   uint8  // stateProbing, or the parked resolution (chain mid-emission)
}

// Stats accumulates per-handle observability counters.
type Stats struct {
	// Completed counts finished operations by kind.
	Gets, Puts, Upserts, Deletes uint64
	// Hits counts Gets that found their key and Deletes that removed one.
	Hits uint64
	// Failed counts Puts/Upserts rejected because the table was full.
	Failed uint64
	// Reprobes counts line crossings (requests re-enqueued with a fresh
	// prefetch).
	Reprobes uint64
	// Lines counts cache lines touched (1 + reprobes per op); the paper
	// reports Lines/Ops ≈ 1.3 at 75% fill.
	Lines uint64
	// KeyLines counts line visits whose key lanes were actually consulted.
	// With FilterNone every visit counts; with FilterTags only tag-admitted
	// visits do, so KeyLines(tags) + TagSkips(tags) = KeyLines(none) on the
	// same single-threaded workload — the filter's saving is the gap.
	KeyLines uint64
	// TagSkips counts line visits rejected by the packed tag word alone:
	// every lane at or after the probe's entry offset provably held a
	// different published key, so no key lane was loaded.
	TagSkips uint64
	// TagHits counts tag-admitted line visits the kernel then resolved
	// (key found or probe chain terminated by an empty lane).
	TagHits uint64
	// TagFalse counts tag-admitted line visits the kernel then missed —
	// the filter's false positives (a colliding fingerprint or a
	// must-check zero tag on a lane that resolved nothing).
	TagFalse uint64
	// CombinedUpserts counts Upserts folded into a pending same-key Upsert
	// at Submit time. Each is also counted in Upserts — combining changes
	// how an operation executes, never whether it completed.
	CombinedUpserts uint64
	// PiggybackedGets counts Gets that shared a pending same-key Get's
	// probe, each receiving its own response from the one result.
	PiggybackedGets uint64
	// ForwardedGets counts Gets answered by store-to-load forwarding from a
	// pending same-key Put/Upsert's in-flight value.
	ForwardedGets uint64
	// CASAttempts counts atomic updates issued against slot words (key
	// claim/delete CASes plus value stores and adds). KeyLines+CASAttempts
	// per op is the combine A/B's memory-transaction metric: a combined
	// request adds zero to either term.
	CASAttempts uint64
}

// Ops returns the total completed operation count.
func (s *Stats) Ops() uint64 { return s.Gets + s.Puts + s.Upserts + s.Deletes }

// Core returns the counters every probe configuration must agree on: the
// filter-observability fields (KeyLines, TagSkips, TagHits, TagFalse) and
// CASAttempts are zeroed because they intentionally differ across kernels
// and filters, while completions, hits, failures, reprobes, line touches
// and the combine counters are execution-model-invariant (a merge decision
// reads only the handle's ring, which evolves identically under every
// kernel and filter). The equivalence property tests compare Cores.
func (s Stats) Core() Stats {
	c := s
	c.KeyLines, c.TagSkips, c.TagHits, c.TagFalse = 0, 0, 0, 0
	c.CASAttempts = 0
	return c
}

// Handle is a single-goroutine accessor holding the prefetch queue. Handles
// must not be shared between goroutines; create one per worker. Any number
// of handles may operate on the same Table concurrently.
type Handle struct {
	t *Table
	// regs, nreg and rslots are the table's (fixed at construction), held
	// here so that routing a request and finding its entry's storage do not
	// go through t.
	regs    []region
	nreg    uint64
	rslots  uint64
	q       []pending // ring buffer, len power of two; nil on a bucket table
	mask    int       // ring capacity - 1, shared with the byte ring's byteQ
	head    int       // enqueue position
	tail    int       // dequeue position (oldest)
	window  int
	kernel  table.ProbeKernel
	filter  table.ProbeFilter
	combine bool

	// bhs holds the bucket-layout engine views the byte API runs on, one per
	// region (non-nil iff the table is LayoutBucket): each owns an arena
	// writer/pin and the engine-level probe counters that Stats folds into
	// KeyLines/Reprobes.
	bhs []*slotarr.BucketHandle

	// ptags mirrors each ring slot's tag fingerprint, one byte per slot
	// packed eight to a word, so the combine scan checks the whole window
	// with a handful of SWAR byte-matches instead of touching any pending
	// struct. Bytes are written at enqueue and never cleared at dequeue;
	// liveness is decided positionally (see combineScan). Nil when
	// combining is off.
	ptags []uint64
	// tagcnt counts live pending requests per tag byte. It gates the combine
	// scan down to one L1 load on the (overwhelmingly common, under low skew)
	// submissions whose tag matches nothing in flight: enqueue increments,
	// position retirement decrements (reading the tag back from ptags), and
	// Submit scans only when tagcnt[tag] != 0. Entry 0 absorbs the
	// decrements of parked slots, whose bytes were cleared (and counts
	// released) at park time; published tags are 1..255, so it is never read.
	tagcnt [256]int32
	// merged is the arena of combined Gets riding pending leaders; free
	// entries are linked through next with the same 1+index encoding the
	// chains use, headed by mfree. Steady state allocates nothing.
	merged []mergedGet
	mfree  int32

	stats Stats

	// Observability (all nil/zero when the table has no registry — the hot
	// path then pays exactly one predictable nil check per site). The handle
	// accumulates into its plain stats fields as always and obsPublish
	// copies them into the padded shard at Submit/Flush boundaries, so
	// observe-on adds no per-op shared-line traffic.
	obsw       *obs.Worker
	trace      *obs.TraceRing
	traceEvery int // sample 1-in-N submissions into the trace ring
	traceCnt   int
	pubCnt     int    // Submit calls since the last throttled publish
	occMax     uint64 // high-water pipeline occupancy since creation
	// hot is the worker's hot-key sketch shard (nil unless the registry has
	// hot keys enabled): every submitted key is offered, one predictable nil
	// check per request otherwise. opLat arms per-op-class latency stamping
	// (two clock reads per op, priced like onComplete).
	hot   *obs.TopK
	opLat bool

	// onComplete, when set, receives every completed request and its
	// latency in nanoseconds (used by the Figure 9 latency experiment).
	onComplete func(req table.Request, lat time.Duration)

	// Byte pipeline (netbatch.go): the ring of in-flight byte-string
	// requests whose home bucket lines were prefetched at SubmitBytes, and
	// the completion callback that replaces per-op response channels on the
	// network path. Nil until OnByteComplete arms it (bucket layout only).
	byteQ  []bytePending
	bhead  int
	btail  int
	onByte func(ByteCompletion)

	// Governor plumbing (all nil/zero when the table has no governor — the
	// hot path then pays exactly one predictable nil check in Submit). The
	// handle caches the governor's packed decision word and re-decodes only
	// when it changes, and only while its own pipeline is empty, so a
	// configuration change never tears an in-flight window.
	gov       *governor.Governor
	govWord   uint64
	direct    bool // cached Decision.Direct: Submit bypasses the ring
	govCnt    int  // Submit calls since the last poll
	govLastNS int64
	// govPrev* snapshot the stats fields the sensor deltas are computed
	// from at the last poll.
	govPrevOps   uint64
	govPrevChits uint64
	govPrevSkips uint64
	govPrevLines uint64

	// bstaged is the byte ring's stage-two cursor (DESIGN.md §3.1.8):
	// positions below it have had their candidate records prefetched.
	// stageHook, set only by tests, sees every such prefetch. The flat layout
	// touches neither, so they sit behind everything its Submit reads.
	bstaged   int
	stageHook func(hv uint64)
}

// NewHandle creates an accessor for the table.
func (t *Table) NewHandle() *Handle {
	capacity := 1
	for capacity < t.window+1 {
		capacity <<= 1
	}
	h := &Handle{
		t:       t,
		regs:    t.regs,
		nreg:    t.nreg,
		rslots:  t.rslots,
		mask:    capacity - 1,
		window:  t.window,
		kernel:  t.kernel,
		filter:  t.filter,
		combine: t.combine == table.CombineOn,
	}
	if t.Bucket() != nil {
		// The byte API's engine views; OnByteComplete allocates the byte ring.
		h.bhs = make([]*slotarr.BucketHandle, len(t.regs))
		for i := range t.regs {
			h.bhs[i] = t.regs[i].bkt.NewHandle()
		}
	} else {
		h.q = make([]pending, capacity)
		if h.combine {
			h.ptags = make([]uint64, (capacity+7)/8)
		}
	}
	if t.obsReg != nil {
		n := t.nhandle.Add(1)
		h.obsw = t.obsReg.Worker(t.worker + strconv.FormatInt(n-1, 10))
		h.trace = t.obsReg.Trace()
		h.traceEvery = t.obsReg.TraceSampleN()
		h.hot = h.obsw.Hot
		h.opLat = t.obsReg.OpLatencyEnabled()
	}
	if t.gov != nil {
		h.gov = t.gov
		h.govWord = t.gov.Word()
		h.applyDecision(governor.Unpack(h.govWord))
	}
	return h
}

// applyDecision actuates a governor decision on this handle. Callers must
// only invoke it while the pipeline is empty (head == tail): every toggle is
// proven safe at that boundary — tagcnt is balanced, stale ptags bytes can
// only cause missed combines or key-confirmed matches, and PublishTag stays
// unconditional on insert paths so a re-enabled filter never misses a tag.
// The decision is clamped to the table's constructed capabilities.
func (h *Handle) applyDecision(d governor.Decision) {
	h.direct = d.Direct
	w := d.Window
	if w < 1 {
		w = 1
	}
	if w > h.t.window {
		w = h.t.window // ring capacity was sized for the constructed window
	}
	h.window = w
	h.combine = d.Combine && h.ptags != nil
	if d.Filter && h.t.filter == table.FilterTags {
		h.filter = table.FilterTags
	} else {
		h.filter = table.FilterNone
	}
}

// govPollEvery throttles governor polls to one per govPollEvery Submit
// calls: a poll is one time.Now plus one atomic load (plus a Feed when the
// sensor deltas are nonzero), so amortized over batched submissions the
// governed hot path stays within noise of the ungoverned one.
const govPollEvery = 64

// govPoll feeds the governor this handle's sensor deltas and picks up a
// changed decision word at a safe (empty-pipeline) boundary.
func (h *Handle) govPoll() {
	if h.govCnt++; h.govCnt < govPollEvery {
		return
	}
	h.govCnt = 0
	now := time.Now().UnixNano()
	if h.govLastNS != 0 {
		s := &h.stats
		ops := s.Ops()
		chits := s.CombinedUpserts + s.PiggybackedGets + s.ForwardedGets
		lines := s.KeyLines + s.TagSkips
		h.gov.Feed(governor.Sample{
			Ops:         ops - h.govPrevOps,
			NS:          uint64(now - h.govLastNS),
			CombineHits: chits - h.govPrevChits,
			TagSkips:    s.TagSkips - h.govPrevSkips,
			Lines:       lines - h.govPrevLines,
		})
		h.govPrevOps, h.govPrevChits = ops, chits
		h.govPrevSkips, h.govPrevLines = s.TagSkips, lines
	}
	h.govLastNS = now
	h.govApply()
}

// govApply adopts a changed decision word, but only at the empty-pipeline
// boundary where every actuation is safe. A handle that streams without
// ever draining simply keeps its current configuration (Flush also calls
// this, so the common submit/flush batch shape applies within one batch).
func (h *Handle) govApply() {
	if w := h.gov.Word(); w != h.govWord && h.head == h.tail {
		h.govWord = w
		h.applyDecision(governor.Unpack(w))
	}
}

// GovernorState reports the governor's current decision, epochs stepped,
// and convergence flag; ok is false (and the rest zero) on an ungoverned
// table. Benchmarks record the final decision alongside their Mops.
func (t *Table) GovernorState() (d governor.Decision, epochs uint64, pinned, ok bool) {
	if t.gov == nil {
		return governor.Decision{}, 0, false, false
	}
	return t.gov.Decision(), t.gov.Epochs(), t.gov.Pinned(), true
}

// SetLatencyHook installs a completion callback; pass nil to disable.
// Enabling it adds a timestamp per request.
func (h *Handle) SetLatencyHook(fn func(req table.Request, lat time.Duration)) {
	h.onComplete = fn
}

// Stats returns a copy of the handle's counters.
func (h *Handle) Stats() Stats { return h.stats }

// Pending returns the number of requests currently in the pipeline.
func (h *Handle) Pending() int { return h.head - h.tail }

// enqueue publishes the entry its caller has just written into the head
// slot — Submit constructs a new request there, reprobe moves the queue-head
// request there — by mirroring its tag byte, counting it and advancing head.
// The slot is the entry's only home: nothing is copied in or out.
func (h *Handle) enqueue() {
	s := h.head & h.mask
	p := &h.q[s]
	if h.combine {
		shift := uint(s&7) * 8
		h.ptags[s>>3] = h.ptags[s>>3]&^(0xff<<shift) | uint64(p.tag)<<shift
		h.tagcnt[p.tag]++
	}
	h.head++
	if p.trace != 0 {
		// Every enqueue is either a request's first entry into the pipeline
		// (probes == 0: Submit) or a line crossing's re-entry (Reprobe); the
		// discrimination here keeps the drains free of trace calls.
		if p.probes == 0 {
			h.trace.Record(p.trace, obs.EvSubmit, uint8(p.req.Op), p.req.Key, 0)
		} else {
			h.trace.Record(p.trace, obs.EvReprobe, uint8(p.req.Op), p.req.Key, uint32(p.probes))
		}
	}
}

// pop retires the queue-head position. With combining on it releases the
// slot's tag byte from the per-tag occupancy counts; a reprobe's re-enqueue
// re-increments the same tag, and a parked leader released its count (and
// cleared its byte) when it parked, so the byte read here is 0 and the
// decrement lands on the never-consulted entry 0.
func (h *Handle) pop() {
	if h.combine {
		s := h.tail & h.mask
		h.tagcnt[uint8(h.ptags[s>>3]>>(uint(s&7)*8))]--
	}
	h.tail++
}

// reprobe sends the queue-head request p to the back of the queue behind a
// fresh prefetch of the line its drain advanced the probe cursor (idx,
// probes) to; the cursor is stored back here, once. The move is the only
// copy an entry ever sees. Source and destination are distinct slots: the
// ring holds at least window+1 entries and at most window are pending, so
// the head slot is never the tail slot.
func (h *Handle) reprobe(p *pending, idx, probes uint64) {
	p.idx, p.probes = idx, probes
	h.pop()
	h.prefetchNext(h.regs[p.part].arr, idx, p.tag)
	h.stats.Reprobes++
	h.stats.Lines++
	h.q[h.head&h.mask] = *p
	h.enqueue()
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
// Ordering: requests complete out of order. In particular, two requests for
// the SAME key in one pipeline may execute out of submission order when the
// earlier one reprobes (it re-enters the queue behind the later one) — a Get
// submitted after a Put of the same key may therefore miss it. When
// read-your-writes is needed, Flush between the write and the read; this is
// the latency-for-throughput trade the paper makes explicit.
//
// With combining on (the default), a request whose key already has a
// pending request in this handle's queue may be merged into it instead of
// enqueueing: it still completes (and a Get still gets its own response
// carrying its own ID), but shares the pending request's probe instead of
// issuing its own prefetch, line loads and atomics. A merged Get is ordered
// after the pending write it forwarded from — a strictly stronger ordering
// than the uncombined pipeline gives same-key pairs.
func (h *Handle) Submit(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	h.requireLayout(table.LayoutFlat)
	if h.obsw != nil {
		defer h.obsPublishThrottled()
	}
	if h.gov != nil {
		h.govPoll()
		if h.direct {
			// Degraded direct mode: the governor concluded pipelining cannot
			// pay here, so Submit executes each request synchronously inline
			// — a folklore-style probe that keeps the SWAR kernel and the
			// tag filter but skips the ring, the prefetch bookkeeping and
			// the out-of-order completion machinery entirely.
			return h.submitDirect(reqs, resps)
		}
	}
	for nreq < len(reqs) {
		req := reqs[nreq]
		var hv uint64
		hashed := false
		if h.combine && h.head != h.tail && req.Op != table.Delete &&
			!table.IsReservedKey(req.Key) {
			// Absorbing never grows the queue, so a merge skips the drain
			// loop entirely: a same-key burst completes without a single
			// additional memory transaction.
			hv = h.t.hash(req.Key)
			hashed = true
			// tagcnt gates the ring scan down to one L1 load when nothing in
			// flight shares the tag byte — the overwhelmingly common case
			// under low skew, which keeps the uniform workload at the
			// uncombined pipeline's speed.
			if tag := table.TagOf(hv); h.tagcnt[tag] != 0 {
				if pos := h.combineScan(req.Key, tag); pos >= 0 && h.tryCombine(&reqs[nreq], pos) {
					// The sketch feed sits on the combining sidecar path: a
					// merged request is exactly a repeated key, the signal the
					// hot-key ranking exists to surface.
					if h.hot != nil {
						h.hot.OfferSampled(req.Key)
					}
					nreq++
					continue
				}
			}
		}
		for h.Pending() >= h.window {
			wrote, blocked := h.processOldest(resps, &nresp)
			if blocked {
				return nreq, nresp
			}
			_ = wrote
		}
		// Feed after the backpressure loop so a blocked-and-resubmitted
		// request is counted once, at the submission that actually enqueues.
		if h.hot != nil {
			h.hot.OfferSampled(req.Key)
		}
		// The request is built in the head slot and stays there until it
		// completes or reprobes. The slot is taken only now: the back-pressure
		// loop above may have re-enqueued a reprobing request at the old head.
		// Every field is assigned, one store each — a composite literal would
		// be built on the stack and copied in.
		p := &h.q[h.head&h.mask]
		p.req = req
		p.probes, p.startNS, p.rval, p.trace = 0, 0, 0, 0
		p.chain, p.ngets, p.state = 0, 0, stateProbing
		if h.onComplete != nil || h.opLat {
			p.startNS = time.Now().UnixNano()
		}
		if h.trace != nil {
			if h.traceCnt++; h.traceCnt >= h.traceEvery {
				h.traceCnt = 0
				p.trace = h.trace.NextID()
			}
		}
		if !hashed {
			hv = h.t.hash(req.Key)
		}
		p.tag = table.TagOf(hv)
		part, idx := hashfn.FastrangeSplit(hv, h.nreg, h.rslots)
		p.part, p.idx = uint32(part), idx
		arr := h.regs[part].arr
		// Submit loads no table memory: it only starts the fetches the drain
		// will need a window from now — the home data line and, in tags mode,
		// the sidecar word the drain gates on. Gating the data fetch on the
		// tag word here would make Submit wait for the sidecar miss.
		if h.filter == table.FilterTags {
			arr.PrefetchTags(idx)
		}
		arr.Prefetch(idx)
		h.enqueue()
		h.stats.Lines++
		nreq++
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
		if _, blocked := h.processOldest(resps, &nresp); blocked {
			return nresp, false
		}
	}
	if h.gov != nil {
		// The pipeline is provably empty here: adopt any pending decision so
		// submit/flush-batched callers actuate within one batch even if no
		// Submit poll landed on an empty window.
		h.govApply()
	}
	return nresp, true
}

// processOldest executes the oldest pending request, in its ring slot, over
// its current (prefetched) cache line. If the request resolves it completes,
// possibly writing a response; if it must cross into the next cache line it
// is re-enqueued with a new prefetch. blocked reports that a Get completed
// but resps had no room — the request is left, untouched, at the queue head.
//
// The operation kind is dispatched exactly once here: each SWAR drain (see
// swar.go) contains the line-granular kernel loop specialized for its op, so
// the probe loop itself carries no per-slot op switch.
func (h *Handle) processOldest(resps []table.Response, nresp *int) (wrote, blocked bool) {
	p := &h.q[h.tail&h.mask]
	if p.trace != 0 && p.state == stateProbing {
		h.trace.Record(p.trace, obs.EvProbe, uint8(p.req.Op), p.req.Key, uint32(p.probes))
	}

	// A parked leader already resolved; only its combined-Get chain is
	// still waiting for response space. Resume emitting where retire
	// stopped; a chain that still does not fit has shrunk where it sits.
	if p.state != stateProbing {
		if h.emitChain(p, p.rval, p.state == stateHit, resps, nresp) {
			h.pop()
			return true, false
		}
		return false, true
	}

	// Reserved keys bypass the array entirely (side slots are always
	// cache-hot); resolve immediately.
	if s := h.t.side.For(p.req.Key); s != nil {
		if p.req.Op == table.Get && *nresp >= len(resps) {
			return false, true
		}
		h.pop()
		h.completeSide(s, &p.req, p.startNS, p.trace, resps, nresp)
		return true, false
	}

	if h.kernel == table.KernelScalar {
		return h.processScalar(p, resps, nresp)
	}
	switch p.req.Op {
	case table.Get:
		return h.drainGet(p, resps, nresp)
	case table.Put:
		return h.drainUpdate(p, false, resps, nresp)
	case table.Upsert:
		return h.drainUpdate(p, true, resps, nresp)
	default:
		return h.drainDelete(p)
	}
}

// prefetchNext issues the reprobe prefetch for the line starting at slot
// next (line-aligned). In tags mode the data pull is elided when the packed
// tag word already proves the line will be rejected on arrival, so a
// skipped line costs neither a key-lane load nor a cache-line fill. Unlike
// Submit, a reprobe can afford the gate: one 64-byte sidecar line covers
// sixteen data lines, so the neighbouring line's tag word is resident
// fifteen times in sixteen. Tags
// are write-once (0 → fingerprint), so a tag published between this check
// and the drain can only admit lanes the check rejected — at worst an
// unprefetched but fully correct probe, never a wrong skip.
func (h *Handle) prefetchNext(arr *slotarr.Array, next uint64, tag uint8) {
	if h.filter == table.FilterTags && arr.LineCandidates(next, tag) == 0 {
		return
	}
	arr.Prefetch(next)
}

// processScalar is the pre-SWAR slot-by-slot hot path, retained as the
// table.KernelScalar ablation baseline (and the reference the SWAR
// equivalence property test compares against).
func (h *Handle) processScalar(p *pending, resps []table.Response, nresp *int) (wrote, blocked bool) {
	t, arr, size := h.t, h.regs[p.part].arr, h.rslots
	h.stats.KeyLines++
	// The probe cursor walks in locals; reprobe stores it back once, before
	// the move, and a blocked return leaves the slot as it found it.
	idx, probes := p.idx, p.probes
	line := slotarr.LineOf(idx)
	for {
		// Crossing into the next cache line: reprobe.
		if slotarr.LineOf(idx) != line || probes >= size {
			if probes >= size {
				// Full-table probe: the operation fails (Get/Delete: not
				// found; Put/Upsert: table full).
				if p.req.Op == table.Get && *nresp >= len(resps) {
					return false, true
				}
				return h.completeFailed(p, resps, nresp)
			}
			h.reprobe(p, idx, probes)
			return false, false
		}

		k := arr.Key(idx)
		switch {
		case k == p.req.Key:
			switch p.req.Op {
			case table.Get:
				if *nresp >= len(resps) {
					return false, true
				}
				return h.retire(p, table.Get, arr.WaitValue(idx), true, false, resps, nresp)
			case table.Put:
				h.stats.CASAttempts++
				arr.StoreValue(idx, p.req.Value)
				return h.retire(p, table.Put, p.req.Value, true, false, resps, nresp)
			case table.Upsert:
				h.stats.CASAttempts++
				return h.retire(p, table.Upsert, arr.AddValue(idx, p.req.Value), true, false, resps, nresp)
			case table.Delete:
				h.pop()
				h.stats.CASAttempts++
				if arr.CASKey(idx, p.req.Key, table.TombstoneKey) {
					t.live.Add(-1)
					h.finish(p, table.Delete, true)
				} else {
					h.finish(p, table.Delete, false)
				}
			}
			return true, false

		case k == table.EmptyKey:
			switch p.req.Op {
			case table.Get:
				if *nresp >= len(resps) {
					return false, true
				}
				return h.retire(p, table.Get, 0, false, false, resps, nresp)
			case table.Delete:
				h.pop()
				h.finish(p, table.Delete, false)
				return true, false
			case table.Put, table.Upsert:
				h.stats.CASAttempts++
				if arr.CASKey(idx, table.EmptyKey, p.req.Key) {
					arr.PublishTag(idx, p.tag)
					h.stats.CASAttempts++
					arr.StoreValue(idx, p.req.Value)
					t.used.Add(1)
					t.live.Add(1)
					return h.retire(p, p.req.Op, p.req.Value, true, false, resps, nresp)
				}
				// Claim race lost: the slot now holds some key; re-inspect
				// it without advancing.
				continue
			}

		default:
			// Another key or a tombstone: advance within the line.
			idx++
			if idx == size {
				idx = 0
				// Wrapping lands on a different line; the loop's crossing
				// check will catch it because LineOf(0) != line (unless the
				// table is a single line, where probes bound terminates).
			}
			probes++
		}
	}
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

// completeFailed resolves a request whose probe exhausted the table. The
// caller must have verified response space for a Get leader and must NOT
// have advanced h.tail (retire does, or parks the leader's chain).
func (h *Handle) completeFailed(p *pending, resps []table.Response, nresp *int) (wrote, blocked bool) {
	switch p.req.Op {
	case table.Get:
		return h.retire(p, table.Get, 0, false, false, resps, nresp)
	case table.Put, table.Upsert:
		return h.retire(p, p.req.Op, 0, false, true, resps, nresp)
	default:
		h.pop()
		h.finish(p, table.Delete, false)
		return true, false
	}
}

// countOp advances the per-op completion counters — the whole cost of
// completing a request when no trace or latency hook is attached (the direct
// path calls it instead of finishReq to skip the hook checks).
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

// finish completes the ring entry p: counters, trace event, latency hook.
func (h *Handle) finish(p *pending, op table.Op, hit bool) {
	h.finishReq(&p.req, p.startNS, p.trace, op, hit)
}

// finishReq is finish for a request that holds no ring slot of its own — a
// folded Upsert, a chained Get, a direct-mode op — so completing it builds
// no pending.
func (h *Handle) finishReq(req *table.Request, startNS int64, trace uint64, op table.Op, hit bool) {
	h.countOp(op, hit)
	if trace != 0 {
		var arg uint32
		if hit {
			arg = 1
		}
		h.trace.Record(trace, obs.EvComplete, uint8(op), req.Key, arg)
	}
	if h.onComplete != nil || h.opLat {
		// startNS is only stamped at Submit when a latency consumer (the
		// hook or per-op histograms) was already armed; a request that
		// predates it completes with a zero latency instead of a nonsense
		// now-minus-zero reading (and skips the second time.Now() call
		// entirely). When neither is armed this branch is the whole cost:
		// no timestamps are taken anywhere.
		var lat time.Duration
		if startNS != 0 {
			lat = time.Duration(time.Now().UnixNano() - startNS)
			if h.opLat {
				h.obsw.Op[obs.OpClass(op, hit)].Record(uint64(lat))
			}
		}
		if h.onComplete != nil {
			h.onComplete(*req, lat)
		}
	}
}

// obsPublishEvery throttles Submit-side publishes: small batches (the
// common batch-16 streaming shape) would otherwise pay ~20 atomic stores
// per 16 ops, which alone exceeds the ≤2% observe-on budget. Every 64th
// Submit — plus every Flush, so quiescent handles are always exact —
// bounds the publish cost at a fraction of a store per op while scrapes
// still see values at most one window behind.
const obsPublishEvery = 64

// obsPublishThrottled tracks the occupancy high-water cheaply on every
// Submit and forwards one call in obsPublishEvery to obsPublish.
func (h *Handle) obsPublishThrottled() {
	if occ := uint64(h.Pending()); occ > h.occMax {
		h.occMax = occ
	}
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
	w.Store(obs.CTagSkips, s.TagSkips)
	w.Store(obs.CTagHits, s.TagHits)
	w.Store(obs.CTagFalse, s.TagFalse)
	w.Store(obs.CCombinedUpserts, s.CombinedUpserts)
	w.Store(obs.CPiggybackedGets, s.PiggybackedGets)
	w.Store(obs.CForwardedGets, s.ForwardedGets)
	w.Store(obs.CCASAttempts, s.CASAttempts)
	occ := uint64(h.Pending())
	if occ > h.occMax {
		h.occMax = occ
	}
	w.SetGauge(obs.GWindowOcc, occ)
	w.SetGauge(obs.GWindowMax, h.occMax)
}
