package dramhitp

import (
	"dramhit/internal/arena"
	"dramhit/internal/dramhit"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// BytesConfig parameterizes NewBytes.
type BytesConfig struct {
	// Slots is the starting capacity across all partitions; every partition
	// resizes itself, so it is not a cap.
	Slots uint64
	// Partitions is the partition count (default 1).
	Partitions int
	// PrefetchWindow is the handles' pipeline depth (default
	// dramhit.DefaultPrefetchWindow).
	PrefetchWindow int
	// Observe, when non-nil, registers each handle's counter shard (as
	// "dramhitp-h<n>") and the table's "dramhitp" pull source and heatmap.
	Observe *obs.Registry
}

// NewBytes builds DRAMHiT-P's partitioned byte table: one self-resizing
// one-line-bucket index per partition, all over one arena, so a record
// written through any partition is readable table-wide and reclamation
// epochs advance table-wide. A key's partition is hashfn.ShardRange of its
// byte hash.
//
// The table is a dramhit view over the partitions, and its handles are
// ordinary dramhit handles: GetBytes/PutBytes/UpsertBytes/DeleteBytes and the
// SubmitBytes ring. Every write is a synchronous CAS on the partition's
// engine, from any handle; the table starts no goroutine and builds no
// delegation fabric.
func NewBytes(cfg BytesConfig) *dramhit.Table {
	if cfg.Slots == 0 {
		panic("dramhitp: BytesConfig.Slots must be positive")
	}
	nparts := uint64(max(cfg.Partitions, 1))
	partSlots := (cfg.Slots + nparts - 1) / nparts
	ar := arena.New()
	regs := dramhit.Regions{Side: new(slotarr.SidePair), Worker: "dramhitp-h"}
	for range nparts {
		regs.Buckets = append(regs.Buckets, slotarr.NewBucketTable(slotarr.BucketConfig{
			Buckets: (partSlots + slotarr.BucketLanes - 1) / slotarr.BucketLanes,
			Arena:   ar,
		}))
	}
	t := dramhit.NewView(dramhit.Config{
		Slots:          partSlots * nparts,
		PrefetchWindow: cfg.PrefetchWindow,
		Observe:        cfg.Observe,
		Layout:         table.LayoutBucket,
	}, regs)
	if cfg.Observe != nil {
		// A bucket partition grows instead of refusing an insert, so nothing
		// is ever dropped.
		observe(cfg.Observe, t, t.Len, t.Cap, func() uint64 { return 0 }, int(nparts))
	}
	return t
}
