package dramhit

import (
	"testing"

	"dramhit/internal/arena"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// newRegionTable builds a table over nreg regions the way DRAMHiT-P builds
// its read view — equal slot arrays, or bucket indexes over one shared arena —
// but keeps it for itself: the ring's CAS drains are safe on any arrays, so
// the whole op mix runs on the N-region route, not only the Gets a
// single-writer owner can admit. One region is New.
func newRegionTable(cfg Config, nreg int) *Table {
	if nreg == 1 {
		return New(cfg)
	}
	per := (cfg.Slots + uint64(nreg) - 1) / uint64(nreg)
	cfg.Slots = per * uint64(nreg)
	r := Regions{Side: new(slotarr.SidePair), Worker: "region-h"}
	ar := arena.New()
	for i := 0; i < nreg; i++ {
		if cfg.Layout == table.LayoutBucket {
			r.Buckets = append(r.Buckets, slotarr.NewBucketTable(slotarr.BucketConfig{
				Buckets: (per + slotarr.BucketLanes - 1) / slotarr.BucketLanes, Arena: ar}))
		} else {
			r.Arrays = append(r.Arrays, slotarr.New(per))
		}
	}
	return NewView(cfg, r)
}

// TestConformanceRegions runs the table conformance suite — sequential
// semantics, reserved keys, concurrent clones — over three regions: every op
// routes by the split fastrange (bucket: the scrambled hash) and probes,
// reprobes and wraps inside its entry's region. A bucket table serves only
// the byte API, so its case runs the suite through it (tabletest.ByteMap).
// Capacity is checked loosely, as for every partitioned table: a region
// fills before the table does.
func TestConformanceRegions(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{}},
		{"flat-none-window1", Config{PrefetchWindow: 1}},
		{"flat-direct", Config{Governor: table.GovernorDirect}},
		{"bucket", Config{Layout: table.LayoutBucket}},
	} {
		tabletest.Run(t, "regions-"+c.name, func(n uint64) table.Map {
			cfg := c.cfg
			cfg.Slots = n
			tbl := newRegionTable(cfg, 3)
			if cfg.Layout == table.LayoutBucket {
				return byteMap(tbl)
			}
			return tbl.NewSync()
		}, tabletest.LooseCapacity())
	}
}

// byteMap is the conformance suite's view of a bucket table: its byte API
// with 8-byte keys and values, a fresh handle per clone.
func byteMap(tbl *Table) *tabletest.ByteMap {
	return tabletest.NewByteMap(func() tabletest.ByteAPI { return tbl.NewHandle() }, tbl.Len, tbl.Cap)
}
