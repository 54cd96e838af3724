// Package dramhitp implements DRAMHiT-P, the partitioned variant of DRAMHiT
// (paper §3.2): the key space is split across non-overlapping partitions;
// read operations execute directly on any partition from any thread with no
// atomic instructions, while update operations are delegated over the
// message-passing fabric to the single thread that owns the destination
// partition. Single-writer partitions eliminate coherence contention under
// skew — under high contention explicit delegation outperforms the hardware
// coherence protocol.
//
// Updates issued through the delegated interface return no result
// (fire-and-forget), which is what keeps a delegated update within a few
// tens of cycles. Each WriteHandle folds duplicate-key Upserts before it
// delegates them (combine.go). A WriteHandle.Barrier gives read-your-writes
// when callers need it.
//
// Reads and writes run one probe engine: the table is a dramhit view over
// the partitions, every ReadHandle is one of its handles, and so is each
// owner's, into which the owner submits the updates delegated to it. An
// owner's writes therefore take dramhit's prefetched ring and its claim CAS,
// which on a partition nothing else writes never loses. The view always runs
// the ring: NewView applies no size rule, and the table sets no Governor.
//
// Table is that paper table, uint64 keys and values over flat partitions.
// NewBytes builds the partitioned byte table instead: one self-resizing
// bucket index per partition over one shared arena, served by ordinary
// dramhit handles. It has no owners and no fabric yet: its byte writes are
// synchronous CAS writes on the partition's engine from whichever handle
// makes them, until partition owners take the byte writes over.
package dramhitp

import (
	"strconv"
	"sync"
	"sync/atomic"

	"dramhit/internal/delegation"
	"dramhit/internal/dramhit"
	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// Config parameterizes a Table.
type Config struct {
	// Slots is the total capacity across all partitions.
	Slots uint64
	// Producers is the number of writer (application) threads that will
	// request WriteHandles.
	Producers int
	// Consumers is the number of delegation threads; the paper finds a
	// 1-to-3 producer:consumer split optimal for write-heavy workloads.
	Consumers int
	// PartitionsPerConsumer sets how many partitions each delegation thread
	// owns (default 1; the paper's Figure 3 shows 3).
	PartitionsPerConsumer int
	// PrefetchWindow is the pipeline depth of every reader's and owner's
	// handle (default dramhit.DefaultPrefetchWindow).
	PrefetchWindow int
	// Observe, when non-nil, attaches the table to the observability
	// registry: each handle registers a padded counter shard published at
	// batch boundaries (Flush/Barrier for writers, Submit/Flush for readers
	// and owners), plus a table-level pull source of quiescent-safe
	// aggregates. Nil — the default — is bit-identical and allocation-free.
	Observe *obs.Registry
}

// partition p of the table is region p of its view, written only by its
// owner. What the table keeps of it is the full flag, the one word the owner
// writes and every producer reads: set once no slot is left, so producers
// deny inserts before sending them (paper §3.2). The padding keeps the flags
// of partitions with different owners on different lines
// (TestPartitionIsOneLine).
type partition struct {
	full atomic.Bool
	_    [60]byte
}

// Table is a partitioned DRAMHiT. Obtain WriteHandles (one per writer
// goroutine) and ReadHandles (one per reader goroutine); call Start before
// use and Close when done.
type Table struct {
	cfg       Config
	parts     []partition
	partSlots uint64
	nparts    uint64
	total     uint64
	side      slotarr.SidePair
	fabric    *delegation.Fabric

	started atomic.Bool
	wg      sync.WaitGroup
	// dropped counts updates rejected because their partition was full:
	// denied by a producer, or failed in an owner's ring.
	dropped atomic.Uint64
	// handleSeq hands out producer indices to cloned adapters.
	handleSeq atomic.Int32
	closeOnce sync.Once
	obsReg    *obs.Registry
	// view is dramhit's table over the partitions as regions, sharing side
	// (and hashfn.City64, the route both take). Every ReadHandle is one of
	// its handles, and so is every owner's.
	view *dramhit.Table
}

// New builds the table. Call Start to launch the delegation threads.
func New(cfg Config) *Table {
	if cfg.Slots == 0 {
		panic("dramhitp: Config.Slots must be positive")
	}
	if cfg.Producers <= 0 {
		cfg.Producers = 1
	}
	if cfg.Consumers <= 0 {
		cfg.Consumers = 1
	}
	if cfg.PartitionsPerConsumer <= 0 {
		cfg.PartitionsPerConsumer = 1
	}
	nparts := uint64(cfg.Consumers * cfg.PartitionsPerConsumer)
	partSlots := (cfg.Slots + nparts - 1) / nparts
	t := &Table{
		cfg:       cfg,
		parts:     make([]partition, nparts),
		partSlots: partSlots,
		nparts:    nparts,
		total:     partSlots * nparts,
		obsReg:    cfg.Observe,
		fabric: delegation.New(delegation.Config{
			Producers: cfg.Producers,
			Consumers: cfg.Consumers,
		}),
	}
	// The readers' shards: a distinct name from the core table's "dramhit-h",
	// so a process embedding both tables scrapes both sets of handles. Owners
	// publish under "dramhitp-o<consumer>" and writers under "dramhitp-w<n>".
	regs := dramhit.Regions{Side: &t.side, Worker: "dramhitp-r"}
	for range nparts {
		regs.Arrays = append(regs.Arrays, slotarr.New(partSlots))
	}
	t.view = dramhit.NewView(dramhit.Config{
		Slots:          t.total,
		PrefetchWindow: cfg.PrefetchWindow,
		Observe:        cfg.Observe,
	}, regs)
	if t.obsReg != nil {
		observe(t.obsReg, t.view, t.Len, t.Cap, t.Dropped, t.Partitions())
	}
	return t
}

// observe registers the "dramhitp" pull source and heatmap of a partitioned
// table, flat or byte, over its read view.
func observe(reg *obs.Registry, view *dramhit.Table, length, capacity func() int, dropped func() uint64, nparts int) {
	reg.AddSource("dramhitp", func() map[string]float64 {
		return map[string]float64{
			"live":       float64(length()),
			"slots":      float64(capacity()),
			"dropped":    float64(dropped()),
			"partitions": float64(nparts),
		}
	})
	// One Regions row over the partitions in order shows partition skew
	// directly — owner sharding never moves keys, so a hot partition is
	// a hot selector range.
	reg.AddHeatmapSource("dramhitp", view.Heatmap)
}

// locate maps a key to (partition, local slot). The global slot index is a
// fastrange over the whole table so key density stays uniform; the partition
// is its quotient, keeping linear probe chains entirely within one
// partition. It is the route the read view's handles take.
func (t *Table) locate(key uint64) (part, local uint64) {
	return hashfn.FastrangeSplit(hashfn.City64(key), t.nparts, t.partSlots)
}

// ownerOf returns the consumer index that owns partition p (round-robin
// assignment, paper Figure 3).
func (t *Table) ownerOf(part uint64) int {
	return int(part % uint64(t.cfg.Consumers))
}

// Start launches the delegation (consumer) goroutines, one owner each.
func (t *Table) Start() {
	if t.started.Swap(true) {
		panic("dramhitp: Start called twice")
	}
	for c := 0; c < t.cfg.Consumers; c++ {
		o := &owner{t: t, first: c, h: t.view.NewNamedHandle("dramhitp-o" + strconv.Itoa(c))}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.fabric.Consumer(c).Serve(o.apply, o.drain)
		}()
	}
}

// Close shuts the table down: it closes every producer endpoint
// (Producer.Close is idempotent, so handles already closed by their owners
// are unaffected) and joins the delegation threads. All writer goroutines
// must have quiesced before Close is called.
func (t *Table) Close() {
	t.closeOnce.Do(func() {
		for p := 0; p < t.cfg.Producers; p++ {
			t.fabric.Producer(p).Close()
		}
		t.wg.Wait()
	})
}

// Dropped returns the number of updates discarded because their partition
// was full. Exact once the writers that sent them have passed a Barrier.
func (t *Table) Dropped() uint64 { return t.dropped.Load() }

// Len returns the number of live entries. Exact once every writer has passed
// a Barrier.
func (t *Table) Len() int { return t.view.Len() }

// Cap returns the total slot capacity.
func (t *Table) Cap() int { return int(t.total) }

// Partitions returns the partition count.
func (t *Table) Partitions() int { return int(t.nparts) }

// owner is one delegation thread: the single writer of partitions first,
// first+Consumers, .... It applies each update delegated to them by
// submitting it into its own handle of the read view, so a delegated write
// runs dramhit's prefetched line-pair ring like any other request. Its claim
// is the CAS every handle uses; no other goroutine writes these partitions,
// so that CAS never loses. The handle's ring holds up to a window of updates
// in flight, which Serve drains before the owner acknowledges a barrier and
// whenever its queues run dry.
type owner struct {
	t      *Table
	first  int
	h      *dramhit.Handle
	req    [1]table.Request
	n      uint64 // updates applied
	failed uint64 // the handle's Failed count already added to t.dropped
}

// settleEvery is how many updates an owner applies between checks of its
// partitions' fill (it also checks at every drain). An update to a full
// partition probes all of it before it fails, so the full flag that has
// producers deny such updates must not lag far behind the last claim; but a
// check per update costs more than the update's own probe on a
// cache-resident table.
const settleEvery = 64

// apply submits one delegated update into the owner's ring.
func (o *owner) apply(m delegation.Message) {
	o.req[0] = table.Request{Op: table.Op(m.Aux), Key: m.A, Value: m.B}
	o.h.Submit(o.req[:], nil)
	if o.n++; o.n%settleEvery == 0 {
		o.settle()
	}
}

// drain completes every update in the ring, then settles.
func (o *owner) drain() {
	o.h.Flush(nil)
	o.settle()
}

// settle raises the full flag of every owned partition with no empty slot
// left, and adds the updates that failed because their partition was full
// to Dropped.
func (o *owner) settle() {
	t := o.t
	for p := o.first; p < len(t.parts); p += t.cfg.Consumers {
		if pt := &t.parts[p]; !pt.full.Load() && t.view.RegionFull(p) {
			pt.full.Store(true)
		}
	}
	if f := o.h.Stats().Failed; f != o.failed {
		t.dropped.Add(f - o.failed)
		o.failed = f
	}
}
