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
//     goroutines, each the single writer of its partitions, and a writer
//     folds duplicate-key Upserts before it sends them.
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

// Layout selects a core table's physical layout (Config.Layout) and with it
// the API it serves: LayoutFlat (the default) is the open-addressed
// 16-byte-slot array serving uint64 keys and values; LayoutBucket is the
// self-resizing one-line bucket layout over a log-structured arena serving
// the byte-string API (GetBytes/PutBytes/UpsertBytes/DeleteBytes,
// SubmitBytes). The other layout's calls panic, as does a bucket config that
// sets Governor. DRAMHiT-P's byte table is NewPartitionedBytes.
type Layout = table.Layout

// Layout choices.
const (
	// LayoutFlat is the open-addressed flat slot array (default).
	LayoutFlat = table.LayoutFlat
	// LayoutBucket is the in-cell-metadata bucket layout over the KV arena.
	LayoutBucket = table.LayoutBucket
)

// GovernorMode selects a core flat table's execution mode at construction
// (Config.Governor): GovernorOff (the zero value) lets the table choose, and
// New runs direct mode — the folklore execution model on DRAMHiT's kernel —
// when the slot array is at most 4 MiB (2^18 slots), the prefetch pipeline
// otherwise. GovernorDirect forces direct mode. Table.Direct reports the mode
// chosen. DRAMHiT-P has no such setting: its readers and owners always run
// the pipeline.
type GovernorMode = table.GovernorMode

// Governor modes.
const (
	// GovernorOff lets the table choose its mode by size (the zero value).
	GovernorOff = table.GovernorOff
	// GovernorDirect forces the synchronous inline probe path.
	GovernorDirect = table.GovernorDirect
)

// ParseGovernor maps "off" (or "") and "direct" to the GovernorMode values.
func ParseGovernor(s string) (GovernorMode, error) { return table.ParseGovernor(s) }

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

// PartitionedBytesConfig parameterizes NewPartitionedBytes.
type PartitionedBytesConfig = dramhitp.BytesConfig

// NewPartitionedBytes creates DRAMHiT-P's byte table: a bucket index per
// partition over one arena; its Handles write synchronously, not delegated.
func NewPartitionedBytes(cfg PartitionedBytesConfig) *Table { return dramhitp.NewBytes(cfg) }

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

// Observability is the unified observability registry (internal/obs): attach
// one via a config's Observe field or Folklore.Observe, and serve its sharded
// counters, latency histograms and sampled traces with ServeObservability.
type Observability = obs.Registry

// NewObservability creates a registry with the default trace configuration
// (4096-event ring, 1-in-256 request sampling).
func NewObservability() *Observability { return obs.New() }

// NewObservabilityWith creates a registry with an explicit trace-ring
// capacity and sampling rate; traceCap 0 disables lifecycle tracing.
func NewObservabilityWith(traceCap, sampleN int) *Observability {
	return obs.NewWith(traceCap, sampleN)
}

// ServeObservability exposes reg on addr (e.g. ":8090"): Prometheus text at
// /metrics, lifecycle events at /trace, expvar at /debug/vars and pprof at
// /debug/pprof/. Close the returned server to stop.
func ServeObservability(addr string, reg *Observability) (*http.Server, error) {
	return obs.Serve(addr, reg)
}
