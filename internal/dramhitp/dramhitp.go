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
// tens of cycles. A WriteHandle.Barrier gives read-your-writes when callers
// need it.
package dramhitp

import (
	"sync"
	"sync/atomic"

	"dramhit/internal/arena"
	"dramhit/internal/delegation"
	"dramhit/internal/dramhit"
	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/simd"
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
	// PrefetchWindow is the read-pipeline depth (default
	// dramhit.DefaultPrefetchWindow).
	PrefetchWindow int
	// QueueCapacity is the per-delegation-queue capacity (default 512).
	QueueCapacity int
	// Sections per queue (default capacity/8).
	Sections int
	// ProbeKernel selects the probe strategy of partition owners and the
	// read path. The zero value (table.KernelSWAR) is the branchless
	// cache-line-wide probe of the DRAMHiT-P-SIMD variant (§3.4);
	// table.KernelScalar keeps the slot-by-slot loop for ablation.
	ProbeKernel table.ProbeKernel
	// Combining selects whether WriteHandles fold duplicate-key Upserts into
	// one delegated message (see combine.go). The zero value
	// (table.CombineOn) is the default; table.CombineOff is the A/B baseline.
	// Reads are not combined: ReadHandles run dramhit's ring, which executes
	// every lookup by its own probe.
	Combining table.Combining
	// Observe, when non-nil, attaches the table to the observability
	// registry: each handle registers a padded counter shard published at
	// batch boundaries (Flush/Barrier for writers, Submit/Flush for
	// readers), plus a table-level pull source of quiescent-safe aggregates.
	// Nil — the default — is bit-identical and allocation-free.
	Observe *obs.Registry
	// Layout selects the physical layout of every partition, and with it the
	// API the table serves. The zero value (table.LayoutFlat) is the
	// interleaved uint64 array: delegated uint64 updates (WriteHandle.Put/
	// Upsert/Delete), uint64 reads, Sync. table.LayoutBucket gives each
	// partition a self-resizing one-line-bucket index over one arena shared
	// across all partitions: synchronous byte writes (WriteHandle.PutBytes/
	// UpsertBytes/DeleteBytes) and byte reads (ReadHandle.GetBytes and the
	// byte-lookup ring). Calling the other layout's API panics. ProbeKernel,
	// Combining and Governor apply only to flat tables, so New panics when a
	// bucket config sets any of them.
	Layout table.Layout
	// Governor selects the read path's execution mode, fixed at
	// construction and forwarded to the read view (dramhit.Config.Governor).
	// table.GovernorOff (the zero value) runs ReadHandles' prefetch pipeline;
	// table.GovernorDirect answers each lookup synchronously, in submission
	// order. Writes are delegated either way.
	Governor table.GovernorMode
}

// partition is a single-writer region of the table. The owner thread writes
// with release stores (value before key), concurrent readers probe with
// plain atomic loads; no CAS is needed anywhere because writes are
// serialized by ownership. The padding makes the struct exactly one cache
// line, keeping partitions off each other's lines.
type partition struct {
	arr   *slotarr.Array
	count uint64 // owner-local: claimed slots (incl. tombstones)
	live  int64  // owner-local: present entries
	full  atomic.Bool
	// bkt is the partition's self-resizing bucket index (non-nil iff the
	// table is a bucket table; arr is nil then). All partition engines share
	// one arena, so a record's Ref is meaningful table-wide.
	bkt *slotarr.BucketTable
	_   [24]byte
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
	kernel    table.ProbeKernel
	combine   table.Combining
	layout    table.Layout

	started atomic.Bool
	wg      sync.WaitGroup
	// dropped counts updates rejected because their partition was full.
	dropped atomic.Uint64
	// handleSeq hands out producer indices to cloned adapters.
	handleSeq atomic.Int32
	closeOnce sync.Once
	obsReg    *obs.Registry
	// view is the read side: dramhit's table over the partitions as regions,
	// sharing side (and hashfn.City64, the route both take). Every ReadHandle
	// is one of its handles.
	view *dramhit.Table
}

// New builds the table. Call Start to launch the delegation threads.
func New(cfg Config) *Table {
	if cfg.Slots == 0 {
		panic("dramhitp: Config.Slots must be positive")
	}
	// The read side's configuration: the same knobs, over all partitions,
	// checked here so that a bucket config setting a flat-only knob is
	// rejected before anything is built. Combining is the write side's own.
	vcfg := dramhit.Config{
		PrefetchWindow: cfg.PrefetchWindow,
		ProbeKernel:    cfg.ProbeKernel,
		Observe:        cfg.Observe,
		Layout:         cfg.Layout,
		Governor:       cfg.Governor,
	}
	f := vcfg.FlatOnlyOnBucket()
	if f == "" && cfg.Layout == table.LayoutBucket && cfg.Combining != table.CombineOn {
		f = "Combining"
	}
	if f != "" {
		panic("dramhitp: Config." + f + " applies only to LayoutFlat tables; a LayoutBucket table owns its byte hash, probe and ring")
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
	if partSlots == 0 {
		partSlots = 1
	}
	vcfg.Slots = partSlots * nparts
	t := &Table{
		cfg:       cfg,
		parts:     make([]partition, nparts),
		partSlots: partSlots,
		nparts:    nparts,
		total:     partSlots * nparts,
		kernel:    cfg.ProbeKernel,
		combine:   cfg.Combining,
		layout:    cfg.Layout,
		obsReg:    cfg.Observe,
		fabric: delegation.New(delegation.Config{
			Producers:     cfg.Producers,
			Consumers:     cfg.Consumers,
			QueueCapacity: cfg.QueueCapacity,
			Sections:      cfg.Sections,
		}),
	}
	// A distinct name from the core table's "dramhit-h", so a process
	// embedding both tables scrapes both sets of handles.
	regs := dramhit.Regions{Side: &t.side, Worker: "dramhitp-r"}
	if cfg.Layout == table.LayoutBucket {
		// One arena across all partitions: records written by any owner are
		// readable from any partition handle, and reclamation epochs advance
		// table-wide. Each partition gets its own self-resizing index.
		ar := arena.New()
		for i := range t.parts {
			t.parts[i].bkt = slotarr.NewBucketTable(slotarr.BucketConfig{
				Buckets: (partSlots + slotarr.BucketLanes - 1) / slotarr.BucketLanes,
				Arena:   ar,
			})
			regs.Buckets = append(regs.Buckets, t.parts[i].bkt)
		}
	} else {
		for i := range t.parts {
			t.parts[i].arr = slotarr.New(partSlots)
			regs.Arrays = append(regs.Arrays, t.parts[i].arr)
		}
	}
	t.view = dramhit.NewView(vcfg, regs)
	if t.obsReg != nil {
		t.obsReg.AddSource("dramhitp", func() map[string]float64 {
			return map[string]float64{
				"live":       float64(t.Len()),
				"slots":      float64(t.Cap()),
				"dropped":    float64(t.Dropped()),
				"partitions": float64(t.Partitions()),
			}
		})
		// One Regions row over the partitions in order shows partition skew
		// directly — owner sharding never moves keys, so a hot partition is
		// a hot selector range.
		t.obsReg.AddHeatmapSource("dramhitp", t.view.Heatmap)
	}
	return t
}

// locate maps a key to (partition, local slot). The global slot index is a
// fastrange over the whole table so key density stays uniform; the partition
// is its quotient, keeping linear probe chains entirely within one
// partition. It is the route the read view's handles take.
func (t *Table) locate(key uint64) (part, local uint64) {
	return hashfn.FastrangeSplit(hashfn.City64(key), t.nparts, t.partSlots)
}

// locateBytes maps a byte-string key on a bucket table to its partition
// (hashfn.ShardRange, the route the read view's byte handles take) and the
// bucket engine's hash.
func (t *Table) locateBytes(key []byte) (part, hv uint64) {
	hv = t.parts[0].bkt.HashOf(key) // all partitions share one hash
	return hashfn.ShardRange(hv, t.nparts), hv
}

// Layout returns the physical layout the table was constructed with.
func (t *Table) Layout() table.Layout { return t.layout }

// Combining reports whether WriteHandles fold duplicate-key Upserts.
func (t *Table) Combining() table.Combining { return t.combine }

// ownerOf returns the consumer index that owns partition p (round-robin
// assignment, paper Figure 3).
func (t *Table) ownerOf(part uint64) int {
	return int(part % uint64(t.cfg.Consumers))
}

// Start launches the delegation (consumer) goroutines.
func (t *Table) Start() {
	if t.started.Swap(true) {
		panic("dramhitp: Start called twice")
	}
	for c := 0; c < t.cfg.Consumers; c++ {
		t.wg.Add(1)
		go func(c int) {
			defer t.wg.Done()
			t.fabric.Consumer(c).Run(t.apply)
		}(c)
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
// was full.
func (t *Table) Dropped() uint64 { return t.dropped.Load() }

// Len returns the number of live entries. Exact only when writers are
// quiescent (counters are owner-local and read without synchronization
// beyond atomics).
func (t *Table) Len() int {
	if t.layout == table.LayoutBucket {
		return t.view.Len()
	}
	n := 0
	for i := range t.parts {
		n += int(atomic.LoadInt64(&t.parts[i].live))
	}
	return n + t.side.Count()
}

// Cap returns the total slot capacity (current, on self-resizing bucket
// partitions).
func (t *Table) Cap() int {
	if t.layout == table.LayoutBucket {
		return t.view.Cap()
	}
	return int(t.total)
}

// Partitions returns the partition count.
func (t *Table) Partitions() int { return int(t.nparts) }

// apply executes one delegated update on the owning consumer thread.
func (t *Table) apply(m delegation.Message) {
	op := table.Op(m.Aux)
	key, value := m.A, m.B
	if s := t.side.For(key); s != nil {
		switch op {
		case table.Put:
			s.Put(value)
		case table.Upsert:
			s.Upsert(value)
		case table.Delete:
			s.Delete()
		}
		return
	}
	part, local := t.locate(key)
	pt := &t.parts[part]
	switch op {
	case table.Put:
		if !t.putLocal(pt, local, key, value, false) {
			t.dropped.Add(1)
		}
	case table.Upsert:
		if !t.putLocal(pt, local, key, value, true) {
			t.dropped.Add(1)
		}
	case table.Delete:
		t.deleteLocal(pt, local, key)
	}
}

// putLocal inserts or updates (key, value) in partition pt starting at slot
// `local`. Single-writer: publication order is value first, then key, so a
// concurrent reader never observes a claimed-but-unvalued slot. Under the
// SWAR kernel the probe advances a whole cache line per step; ownership
// makes the line snapshot authoritative (no claim CAS is needed), so the
// kernel's verdict is acted on directly.
func (t *Table) putLocal(pt *partition, local, key, value uint64, add bool) bool {
	arr := pt.arr
	if t.kernel == table.KernelSWAR {
		i := local
		for probes := uint64(0); ; {
			l0, l1, l2, l3, base, valid := arr.LoadKeys4(i)
			lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(i-base))
			switch res {
			case simd.HitKey:
				slot := base + uint64(lane)
				if add {
					arr.AddValue(slot, value)
				} else {
					arr.StoreValue(slot, value)
				}
				return true
			case simd.HitEmpty:
				slot := base + uint64(lane)
				arr.StoreValue(slot, value)
				arr.StoreKey(slot, key)
				pt.count++
				atomic.AddInt64(&pt.live, 1)
				if pt.count >= t.partSlots {
					// Deny further inserts before the next one is attempted
					// (paper §3.2: the owner sets the flag; producers check
					// it).
					pt.full.Store(true)
				}
				return true
			}
			probes += valid - (i - base)
			if probes >= t.partSlots {
				break
			}
			i = base + table.SlotsPerCacheLine
			if i >= t.partSlots {
				i = 0
			}
		}
		pt.full.Store(true)
		return false
	}
	i := local
	for probes := uint64(0); probes < t.partSlots; probes++ {
		switch arr.Key(i) {
		case key:
			if add {
				arr.AddValue(i, value)
			} else {
				arr.StoreValue(i, value)
			}
			return true
		case table.EmptyKey:
			arr.StoreValue(i, value)
			arr.StoreKey(i, key)
			pt.count++
			atomic.AddInt64(&pt.live, 1)
			if pt.count >= t.partSlots {
				// Deny further inserts before the next one is attempted
				// (paper §3.2: the owner sets the flag; producers check it).
				pt.full.Store(true)
			}
			return true
		}
		i++
		if i == t.partSlots {
			i = 0
		}
	}
	pt.full.Store(true)
	return false
}

// deleteLocal tombstones key in partition pt.
func (t *Table) deleteLocal(pt *partition, local, key uint64) {
	arr := pt.arr
	if t.kernel == table.KernelSWAR {
		i := local
		for probes := uint64(0); ; {
			l0, l1, l2, l3, base, valid := arr.LoadKeys4(i)
			lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(i-base))
			switch res {
			case simd.HitKey:
				arr.StoreKey(base+uint64(lane), table.TombstoneKey)
				atomic.AddInt64(&pt.live, -1)
				return
			case simd.HitEmpty:
				return
			}
			probes += valid - (i - base)
			if probes >= t.partSlots {
				return
			}
			i = base + table.SlotsPerCacheLine
			if i >= t.partSlots {
				i = 0
			}
		}
	}
	i := local
	for probes := uint64(0); probes < t.partSlots; probes++ {
		switch arr.Key(i) {
		case key:
			arr.StoreKey(i, table.TombstoneKey)
			atomic.AddInt64(&pt.live, -1)
			return
		case table.EmptyKey:
			return
		}
		i++
		if i == t.partSlots {
			i = 0
		}
	}
}
