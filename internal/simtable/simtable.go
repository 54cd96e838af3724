// Package simtable ports the three hash-table designs — Folklore, DRAMHiT,
// and DRAMHiT-P (with its SIMD variant) — onto the cycle-level machine model
// of internal/memsim. The tables execute their real probe sequences over a
// compact occupancy representation (a 16-bit fingerprint per slot), and
// every cache-line touch, prefetch, CAS, store and delegation message is
// charged through the timing model. This is the layer that regenerates the
// paper's figures: throughput in Mops emerges from latency, bandwidth and
// contention rather than being curve-fit.
package simtable

import (
	"dramhit/internal/hashfn"
	"dramhit/internal/memsim"
	"dramhit/internal/table"
)

// Kind selects a table design.
type Kind int

// The designs compared throughout the paper's evaluation.
const (
	Folklore Kind = iota
	DRAMHiT
	DRAMHiTP
	DRAMHiTPSIMD
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Folklore:
		return "folklore"
	case DRAMHiT:
		return "dramhit"
	case DRAMHiTP:
		return "dramhit-p"
	case DRAMHiTPSIMD:
		return "dramhit-p-simd"
	}
	return "invalid"
}

// Per-operation pure-compute costs in cycles. The paper's budget analysis:
// CRC32 hashing is 2–3 cycles, the whole processing path must stay within a
// few tens of cycles.
// The pipeline-engine costs are calibrated against the paper's small-table
// measurements, where the memory system is not the bottleneck and the
// engine overhead is directly visible: DRAMHiT spends ~110 cycles/op on
// small finds (1513 Mops on 64×2.6 GHz threads) against Folklore's ~103 —
// the batched engine costs roughly 90–100 cycles of queue bookkeeping,
// request copying and completion handling per operation, which prefetching
// must buy back from memory latency to win.
const (
	hashCycles          = 8.0  // hash + fastrange + dispatch
	slotScanScalar      = 1.5  // per-slot key compare + branch (scalar probe)
	lineScanSIMD        = 3.0  // whole-line masked compare (vectorized probe)
	queueOpCycles       = 52.0 // pipeline enqueue + dequeue + request copy
	completionCost      = 22.0 // response marshaling / OOO id handling
	batchOverhead       = 40.0 // per-batch submission bookkeeping
	loopCycles          = 12.0 // folklore's synchronous per-op loop body
	msgEnqueue          = 5.0  // delegation: pack + store message
	msgDequeue          = 5.0
	pollEmptyCycles     = 30.0 // consumer scan over empty queues
	ownerDispatchCycles = 20.0 // partition owner: dequeue-to-pipeline dispatch
	fullCheckCycles     = 2.0  // producer-side partition-full flag test (L1 hit)
)

// fingerprints: 0 = empty, 1 = tombstone, 2..65535 = occupied. Sixteen bits
// keep the false-match rate (two distinct keys treated as equal during a
// probe) below 0.002%, so fill factors and probe lengths track the real
// table.
const (
	fpEmpty     = 0
	fpTombstone = 1
)

// array is the occupancy image of one contiguous slot array, mapped onto
// simulated cache lines starting at baseLine.
type array struct {
	fp       []uint16
	size     uint64
	baseLine uint64
}

// lineAlloc is a bump allocator for simulated line addresses; distinct
// structures (tables, queue buffers, pollution arrays) get disjoint ranges.
type lineAlloc struct{ next uint64 }

// alloc reserves n cache lines and returns the base line address.
func (la *lineAlloc) alloc(n uint64) uint64 {
	base := la.next
	la.next += n + 16 // guard gap so structures never share a line
	return base
}

func newArray(la *lineAlloc, slots uint64) *array {
	return &array{
		fp:       make([]uint16, slots),
		size:     slots,
		baseLine: la.alloc(slots/table.SlotsPerCacheLine + 1),
	}
}

// line returns the simulated line address of slot i.
func (a *array) line(i uint64) uint64 {
	return a.baseLine + i/table.SlotsPerCacheLine
}

func fpOf(h uint64) uint16 {
	// Fastrange consumes the hash's HIGH bits for the slot index, so the
	// fingerprint must come from the LOW bits — otherwise keys that share
	// a home slot would share a fingerprint and alias each other.
	f := uint16(h)
	if f < 2 {
		f += 2
	}
	return f
}

// place performs an untimed insert (prefill): it walks the real probe
// sequence and claims the first free slot, so the timed phase sees the
// correct probe-length distribution for the fill factor.
func (a *array) place(h uint64) bool {
	i := hashfn.Fastrange(h, a.size)
	f := fpOf(h)
	for probes := uint64(0); probes < a.size; probes++ {
		switch a.fp[i] {
		case fpEmpty:
			a.fp[i] = f
			return true
		case f:
			return true // same fingerprint: treated as the same key
		}
		i++
		if i == a.size {
			i = 0
		}
	}
	return false
}

// probe walks the probe sequence for hash h, reporting the resolution slot,
// whether the fingerprint matched (hit) and the number of distinct lines
// inspected. It does not touch the timing model; callers charge accesses.
type probeStep struct {
	slot    uint64
	line    uint64
	newLine bool // first touch of this cache line
}

// occupancy returns the fraction of non-empty slots (diagnostics). Large
// arrays are sampled — a full scan of a 64M-slot table costs more than some
// quick experiment runs.
func (a *array) occupancy() float64 {
	stride := uint64(1)
	if a.size > 1<<22 {
		stride = 16
	}
	n, seen := 0, 0
	for i := uint64(0); i < a.size; i += stride {
		if a.fp[i] != fpEmpty {
			n++
		}
		seen++
	}
	return float64(n) / float64(seen)
}

// scalarInsert walks the probe path of an insert, invoking touch(line) on
// every newly entered cache line and charging per-slot scan compute via
// scan(slots). It returns the slot claimed or matched, and whether the key
// already existed.
func (a *array) scalarInsert(h uint64, touch func(line uint64), scan func(slots int)) (slot uint64, existed, ok bool) {
	i := hashfn.Fastrange(h, a.size)
	f := fpOf(h)
	cur := a.line(i)
	touch(cur)
	scanned := 0
	for probes := uint64(0); probes < a.size; probes++ {
		if l := a.line(i); l != cur {
			scan(scanned)
			scanned = 0
			cur = l
			touch(cur)
		}
		scanned++
		switch a.fp[i] {
		case fpEmpty:
			a.fp[i] = f
			scan(scanned)
			return i, false, true
		case f:
			scan(scanned)
			return i, true, true
		}
		i++
		if i == a.size {
			i = 0
		}
	}
	scan(scanned)
	return 0, false, false
}

// scalarFind walks the probe path of a lookup.
func (a *array) scalarFind(h uint64, touch func(line uint64), scan func(slots int)) (slot uint64, found bool) {
	i := hashfn.Fastrange(h, a.size)
	f := fpOf(h)
	cur := a.line(i)
	touch(cur)
	scanned := 0
	for probes := uint64(0); probes < a.size; probes++ {
		if l := a.line(i); l != cur {
			scan(scanned)
			scanned = 0
			cur = l
			touch(cur)
		}
		scanned++
		switch a.fp[i] {
		case f:
			scan(scanned)
			return i, true
		case fpEmpty:
			scan(scanned)
			return i, false
		}
		i++
		if i == a.size {
			i = 0
		}
	}
	scan(scanned)
	return 0, false
}

// folkloreInsert executes one synchronous Folklore insert on thread t. The
// probe path is resolved first (untimed), then charged: intermediate lines
// are unprefetched loads, and the final line — where the CAS claims the
// slot — is charged as a single RMW. On x86 a lock-prefixed instruction
// serializes the pipeline, so the out-of-order window cannot hide any part
// of the claiming line's transfer; modeling the claim as an RMW fill (which
// the timing model never OOO-hides) captures exactly the penalty that makes
// Folklore's insert path so much slower than its read path (417 vs 451 Mops
// large, 441 vs 1616 small in the paper).
func folkloreInsert(t *memsim.Thread, a *array, h uint64) {
	t.Compute(hashCycles + loopCycles)
	var lines []uint64
	slot, existed, ok := a.scalarInsert(h,
		func(line uint64) { lines = append(lines, line) },
		func(slots int) { t.Compute(slotScanScalar * float64(slots)) })
	for _, l := range lines[:len(lines)-1] {
		t.Access(l, memsim.Load)
	}
	last := lines[len(lines)-1]
	if !ok {
		t.Access(last, memsim.Load)
		return
	}
	if existed {
		// Overwrite: load the line, then store the value word.
		t.Access(last, memsim.Load)
		t.Access(a.line(slot), memsim.Store)
		return
	}
	t.Access(last, memsim.RMW) // CAS claim + value store, serializing
}

// folkloreUpsert is folkloreInsert with counting semantics: updating an
// existing key is an atomic add, so hot keys contend exactly like the
// k-mer counting workload of Figure 12.
func folkloreUpsert(t *memsim.Thread, a *array, h uint64) {
	t.Compute(hashCycles + loopCycles)
	var lines []uint64
	_, _, _ = a.scalarInsert(h,
		func(line uint64) { lines = append(lines, line) },
		func(slots int) { t.Compute(slotScanScalar * float64(slots)) })
	for _, l := range lines[:len(lines)-1] {
		t.Access(l, memsim.Load)
	}
	// Claim or add: either way an atomic on the final line.
	t.Access(lines[len(lines)-1], memsim.RMW)
}

// folkloreFind executes one synchronous lookup (no atomics on the read
// path).
func folkloreFind(t *memsim.Thread, a *array, h uint64) bool {
	t.Compute(hashCycles + loopCycles)
	_, found := a.scalarFind(h,
		func(line uint64) { t.Access(line, memsim.Load) },
		func(slots int) { t.Compute(slotScanScalar * float64(slots)) })
	return found
}
