package dramhit

import (
	"testing"

	"dramhit/internal/arena"
	"dramhit/internal/governor"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
	"dramhit/internal/workload"
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
	r := Regions{Side: new(slotarr.SidePair), Worker: "region-h", GovernorSource: "governor"}
	ar := arena.New()
	for i := 0; i < nreg; i++ {
		switch {
		case cfg.Layout == table.LayoutBucket:
			r.Buckets = append(r.Buckets, slotarr.NewBucketTable(slotarr.BucketConfig{
				Buckets: (per + slotarr.BucketLanes - 1) / slotarr.BucketLanes, Arena: ar}))
		case cfg.EffectiveFilter() == table.FilterTags:
			r.Arrays = append(r.Arrays, slotarr.NewTagged(per))
		default:
			r.Arrays = append(r.Arrays, slotarr.New(per))
		}
	}
	return NewView(cfg, r)
}

// TestConformanceRegions runs the table conformance suite — sequential
// semantics, reserved keys, concurrent clones — over three regions: every op
// routes by the split fastrange (bucket: the scrambled hash) and probes,
// reprobes and wraps inside its entry's region. A bucket table serves only
// the byte API, so its cases run the suite through it (tabletest.ByteMap);
// bucket-direct pins that a Governor setting, which applies only to flat
// tables, leaves the byte API alone. Capacity is checked loosely, as for
// every partitioned table: a region fills before the table does.
func TestConformanceRegions(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"flat-tags", Config{}},
		{"flat-none-window1", Config{ProbeFilter: table.FilterNone, PrefetchWindow: 1}},
		{"flat-scalar", Config{ProbeKernel: table.KernelScalar}},
		{"flat-direct", Config{Governor: table.GovernorDirect}},
		{"bucket", Config{Layout: table.LayoutBucket}},
		{"bucket-direct", Config{Layout: table.LayoutBucket, Governor: table.GovernorDirect}},
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

// TestDirectGetHonorsHandleFilter: a governed handle whose decision turned
// the tag filter OFF must not touch the sidecar on the synchronous Get path
// (DRAMHiT-P's ReadHandle.Get) — gating on the TABLE's filter there would
// keep loading the tag word the governor decided to shed and keep advancing
// TagSkips, skewing the sensors the controller steers by.
func TestDirectGetHonorsHandleFilter(t *testing.T) {
	tbl := newRegionTable(Config{Slots: 4096, Governor: table.GovernorAuto}, 2)
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(31, 2048)
	h.PutBatch(keys, keys)
	// Misses are the filter's showcase: with tags on they resolve from the
	// sidecar alone (TagSkips), with tags off they must load key lines.
	probe := workload.MissKeys(31, 2048, 256)

	off := tbl.NewHandle()
	off.applyDecision(governor.Decision{Direct: true, Filter: false, Window: 4})
	for _, k := range probe {
		if _, ok := off.Get(k); ok {
			t.Fatalf("absent key %#x found", k)
		}
	}
	if s := off.Stats(); s.TagSkips != 0 || s.KeyLines == 0 || s.Gets != uint64(len(probe)) {
		t.Fatalf("filter-off handle consulted the sidecar or loaded no key lines: %+v", s)
	}
	// Control: a tags-on handle sees sidecar activity on the same lookups,
	// proving the counter would have moved.
	on := tbl.NewHandle()
	on.applyDecision(governor.Decision{Direct: true, Filter: true, Window: 4})
	for _, k := range probe {
		on.Get(k)
	}
	if on.Stats().TagSkips == 0 {
		t.Fatal("control handle with the filter on never skipped a line")
	}
}
