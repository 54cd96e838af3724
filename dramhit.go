// Package dramhit is a Go implementation of DRAMHiT, the hash table
// architected for the speed of DRAM (Narayanan, Detweiler, Huang, Burtsev —
// EuroSys 2023), together with the baselines and substrates of the paper's
// evaluation.
//
// The library treats the memory subsystem the way a distributed system
// treats its network: requests are submitted in batches through an
// asynchronous interface, every table access is prefetched before it is
// touched, completions arrive out of order carrying caller-chosen IDs, and —
// in the partitioned variant — updates are delegated over explicit message
// queues to partition-owner threads so contended cache lines never bounce
// between cores.
//
// # The three tables
//
//   - New / Table / Handle: the core DRAMHiT table. Per-goroutine Handles
//     own a prefetch pipeline; Submit/Flush move batches through it.
//   - NewPartitioned / Partitioned: DRAMHiT-P. Reads execute directly from
//     any goroutine; writes are delegated (fire-and-forget) to consumer
//     goroutines, each the single writer of its partitions.
//   - NewFolklore: the synchronous lock-free baseline (Maier et al.) the
//     paper builds on and measures against.
//
// # Quick start
//
//	t := dramhit.New(dramhit.Config{Slots: 1 << 20})
//	h := t.NewHandle()
//	h.PutBatch(keys, values)
//	vals := make([]uint64, len(keys))
//	found := make([]bool, len(keys))
//	h.GetBatch(keys, vals, found)
//
// Values equal to ReservedValue must not be stored (the claim-then-publish
// protocol reserves it); every key value, including 0 and ^0, is usable.
//
// The full reproduction of the paper's evaluation — the cycle-level memory
// simulator, the figure harness, the k-mer macrobenchmark — lives under
// internal/ and is driven by the cmd/ tools; see README.md and DESIGN.md.
package dramhit

import (
	"net/http"

	idramhit "dramhit/internal/dramhit"
	"dramhit/internal/dramhitp"
	"dramhit/internal/folklore"
	"dramhit/internal/growt"
	"dramhit/internal/obs"
	"dramhit/internal/shardmap"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// Op identifies a hash-table operation in a batched request.
type Op = table.Op

// Operation kinds for Request.Op.
const (
	// Get looks up Key; it is the only operation that produces a Response.
	Get = table.Get
	// Put inserts or silently overwrites.
	Put = table.Put
	// Upsert inserts Value or atomically adds it to the existing value.
	Upsert = table.Upsert
	// Delete tombstones the key (slots are reclaimed on resize only).
	Delete = table.Delete
)

// Request is one element of a submitted batch; ID is echoed in the matching
// Response so out-of-order completions can be matched.
type Request = table.Request

// Response is one element of a completed batch.
type Response = table.Response

// ReservedValue is the single value-space sentinel used by the atomicity
// protocol; storing it is not allowed.
const ReservedValue = slotarr.InFlightValue

// ProbeKernel selects the hot-path probe strategy (Config.ProbeKernel and
// PartitionedConfig.ProbeKernel): KernelSWAR (the zero value and default)
// probes a whole 64-byte cache line per step with the lane-parallel
// branch-free kernel; KernelScalar keeps the slot-by-slot loop for ablation
// and A/B benchmarking.
type ProbeKernel = table.ProbeKernel

// Probe kernel choices.
const (
	// KernelSWAR is the line-granular lane-compare kernel (default).
	KernelSWAR = table.KernelSWAR
	// KernelScalar is the slot-by-slot probe loop (A/B baseline).
	KernelScalar = table.KernelScalar
)

// Layout selects the physical layout (Config.Layout and
// PartitionedConfig.Layout), and with it the API a table serves: LayoutFlat
// (the zero value and default) is the open-addressed 16-byte-slot array,
// serving uint64 keys and values; LayoutBucket is
// the one-line bucket layout — 64-byte buckets whose first word holds the
// publish bitmap and seven fingerprints in-cell, whose seven slots reference
// records in a log-structured arena, and which resizes itself — serving the
// byte-string API (GetBytes/PutBytes/UpsertBytes/DeleteBytes, SubmitBytes).
// Calling the other layout's API panics. ProbeKernel and Governor (and
// PartitionedConfig.Combining) apply only to flat tables: constructors panic
// when a bucket config sets one.
type Layout = table.Layout

// Layout choices.
const (
	// LayoutFlat is the open-addressed flat slot array (default).
	LayoutFlat = table.LayoutFlat
	// LayoutBucket is the in-cell-metadata bucket layout over the KV arena.
	LayoutBucket = table.LayoutBucket
)

// ParseLayout maps "flat" (or "") and "bucket" to the Layout values.
func ParseLayout(s string) (Layout, error) { return table.ParseLayout(s) }

// Combining selects whether DRAMHiT-P's write handles fold duplicate-key
// Upserts before delegating them (PartitionedConfig.Combining): CombineOn
// (the zero value and default) folds; CombineOff sends every Upsert, for A/B
// runs. The core table's ring never combines.
type Combining = table.Combining

// Combining choices.
const (
	// CombineOn folds duplicate-key Upserts on the write side (default).
	CombineOn = table.CombineOn
	// CombineOff delegates every Upsert individually (A/B baseline).
	CombineOff = table.CombineOff
)

// ParseCombining maps "on" (or "") and "off" to the Combining values.
func ParseCombining(s string) (Combining, error) { return table.ParseCombining(s) }

// GovernorMode selects a flat table's execution mode at construction
// (Config.Governor and PartitionedConfig.Governor): GovernorOff (the zero
// value) runs the prefetch pipeline; GovernorDirect runs direct mode — the
// folklore execution model on DRAMHiT's kernel, for cache-resident tables.
type GovernorMode = table.GovernorMode

// Governor modes.
const (
	// GovernorOff runs the prefetch pipeline (the zero value).
	GovernorOff = table.GovernorOff
	// GovernorDirect runs the synchronous inline probe path.
	GovernorDirect = table.GovernorDirect
)

// ParseGovernor maps "off" (or "") and "direct" to the GovernorMode values.
func ParseGovernor(s string) (GovernorMode, error) { return table.ParseGovernor(s) }

// ResizeMode selects how the resizable table migrates at a doubling:
// ResizeIncremental (the zero value and default) migrates cooperatively in
// fixed-size chunks with no global write stall; ResizeGate migrates the
// whole table under the exclusive gate for A/B runs.
type ResizeMode = table.ResizeMode

// Resize mode choices.
const (
	// ResizeIncremental migrates in helping-claimed chunks (default).
	ResizeIncremental = table.ResizeIncremental
	// ResizeGate migrates stop-the-world under the gate (A/B baseline).
	ResizeGate = table.ResizeGate
)

// ParseResizeMode maps "incremental" (or "") and "gate" to the ResizeMode
// values.
func ParseResizeMode(s string) (ResizeMode, error) { return table.ParseResizeMode(s) }

// Config parameterizes the core table.
type Config = idramhit.Config

// Table is the core DRAMHiT hash table.
type Table = idramhit.Table

// Handle is a single-goroutine accessor owning a prefetch pipeline.
type Handle = idramhit.Handle

// Stats carries per-handle observability counters.
type Stats = idramhit.Stats

// ByteCompletion reports one finished byte-string request to the callback a
// Handle.OnByteComplete armed — the completion record of the network-facing
// byte pipeline (SubmitBytes/FlushBytes, bucket layout only).
type ByteCompletion = idramhit.ByteCompletion

// DefaultPrefetchWindow is the default pipeline depth.
const DefaultPrefetchWindow = idramhit.DefaultPrefetchWindow

// New creates a DRAMHiT table.
func New(cfg Config) *Table { return idramhit.New(cfg) }

// PartitionedConfig parameterizes DRAMHiT-P.
type PartitionedConfig = dramhitp.Config

// Partitioned is the DRAMHiT-P table: partitioned storage, delegated
// writes, direct reads.
type Partitioned = dramhitp.Table

// WriteHandle is a per-goroutine delegated-write endpoint.
type WriteHandle = dramhitp.WriteHandle

// ReadHandle is a per-goroutine direct-read pipeline.
type ReadHandle = dramhitp.ReadHandle

// NewPartitioned creates a DRAMHiT-P table; call Start before use and Close
// when done.
func NewPartitioned(cfg PartitionedConfig) *Partitioned { return dramhitp.New(cfg) }

// Folklore is the synchronous lock-free baseline table.
type Folklore = folklore.Table

// NewFolklore creates a Folklore table with n slots.
func NewFolklore(n uint64) *Folklore { return folklore.New(n) }

// Map is the minimal synchronous interface implemented by the baselines and
// by the Sync adapters of the asynchronous tables.
type Map = table.Map

// Resizable is an automatically growing table built on the Folklore layout —
// the capability the paper defers to Growt. Operations take a shared gate
// (one uncontended atomic each); resizes migrate incrementally: helping
// operations copy fixed-size chunks into a successor table and retire old
// slots with the MovedKey sentinel, so no operation ever stalls for more
// than one chunk copy. See internal/growt for the protocol.
type Resizable = growt.Table

// NewResizable creates a resizable table with an initial capacity of n
// slots; it grows (or compacts tombstones) when fill exceeds 75%.
func NewResizable(n uint64) *Resizable { return growt.New(n) }

// NewResizableMode is NewResizable with an explicit migration mode —
// ResizeGate selects the stop-the-world baseline the resize-ab experiment
// compares against.
func NewResizableMode(n uint64, mode ResizeMode) *Resizable {
	return growt.New(n, growt.WithResizeMode(mode))
}

// Sharded is the horizontal shard router over the Folklore layout: keys are
// ranged over N independent shards by a dedicated selector hash, and shards
// split (or merge) online — cooperatively, chunk by chunk, never stopping
// the world — under fill pressure or the explicit Split/Merge API. See
// internal/shardmap for the protocol.
type Sharded = shardmap.Map

// NewSharded creates a sharded map with n total slots across the initial
// shard count (default 1; see ShardedOption).
func NewSharded(n uint64, opts ...ShardedOption) *Sharded { return shardmap.New(n, opts...) }

// ShardedOption configures NewSharded.
type ShardedOption = shardmap.Option

// WithShards sets the initial shard count (a power of two).
func WithShards(n int) ShardedOption { return shardmap.WithShards(n) }

// ShardedBatched routes the batched Submit pipeline over N dramhit shards,
// each with its own prefetch windows; handles
// scatter a batch across shard-local rings and gather completions with no
// global lock.
type ShardedBatched = shardmap.Batched

// ShardedBatchedConfig parameterizes NewShardedBatched; Table.Slots is the
// total capacity, divided across shards.
type ShardedBatchedConfig = shardmap.BatchedConfig

// NewShardedBatched creates the sharded batched table.
func NewShardedBatched(cfg ShardedBatchedConfig) *ShardedBatched {
	return shardmap.NewBatched(cfg)
}

// Observability is the unified observability registry (see internal/obs):
// attach one via Config.Observe / PartitionedConfig.Observe (or
// Folklore.Observe) to collect sharded hot-path counters, mergeable latency
// histograms, pipeline gauges, and sampled request-lifecycle traces, and
// serve them over HTTP with ServeObservability.
type Observability = obs.Registry

// NewObservability creates a registry with the default trace configuration
// (4096-event ring, 1-in-256 request sampling).
func NewObservability() *Observability { return obs.New() }

// NewObservabilityWith creates a registry with an explicit trace-ring
// capacity and sampling rate; traceCap 0 disables lifecycle tracing.
func NewObservabilityWith(traceCap, sampleN int) *Observability {
	return obs.NewWith(traceCap, sampleN)
}

// ServeObservability exposes reg on addr (e.g. ":8090"): Prometheus text
// format at /metrics, sampled lifecycle events at /trace, expvar at
// /debug/vars, and net/http/pprof at /debug/pprof/. Close the returned
// server to stop.
func ServeObservability(addr string, reg *Observability) (*http.Server, error) {
	return obs.Serve(addr, reg)
}
