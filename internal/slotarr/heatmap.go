package slotarr

import (
	"dramhit/internal/obs"
	"dramhit/internal/table"
)

// FlatHeatmapRegions is the default region_fill resolution of the flat
// walker: the slot range is split into this many equal consecutive regions.
const FlatHeatmapRegions = 256

// FlatHeatmap builds the standard open-addressing introspection heatmap
// over a flat Array: spatial occupancy (region fill), the probe-depth
// distribution in slots, and the probe-line distribution (cache lines a
// reader touches to reach each live key, 1 = home line). home maps a stored
// key to its home slot — the walker re-derives displacement from the keys
// themselves, so it needs no write-path bookkeeping. Scrape-time only; reads
// race live writers benignly (atomic key loads, like the scrapers).
func FlatHeatmap(a *Array, home func(key uint64) uint64, regions int) obs.Heatmap {
	return FlatHeatmapMulti([]*Array{a},
		func(_ int, key uint64) uint64 { return home(key) }, regions)
}

// FlatHeatmapMulti is FlatHeatmap over the concatenation of several arrays
// (the partitioned table's per-partition slot ranges, in partition order):
// one Regions row spans the combined slot space, and the probe distributions
// merge across partitions. home receives the partition index alongside the
// key and returns a partition-local home slot; displacement is cyclic within
// each partition, matching the partitioned probe paths.
func FlatHeatmapMulti(as []*Array, home func(part int, key uint64) uint64, regions int) obs.Heatmap {
	var total uint64
	for _, a := range as {
		total += a.Size()
	}
	if regions <= 0 {
		regions = FlatHeatmapRegions
	}
	if uint64(regions) > total {
		regions = int(total)
	}
	regionLive := make([]uint64, regions)
	depth := obs.DistBuilder{}
	lines := obs.DistBuilder{}
	var live, tombs uint64
	off := uint64(0)
	for pi, a := range as {
		size := a.Size()
		nlines := LineOf(size-1) + 1
		for i := uint64(0); i < size; i++ {
			k := a.Key(i)
			if k == table.EmptyKey {
				continue
			}
			if table.IsReservedKey(k) {
				tombs++
				continue
			}
			live++
			regionLive[(off+i)*uint64(regions)/total]++
			h := home(pi, k)
			depth.Add((i + size - h) % size)
			lines.Add((LineOf(i)+nlines-LineOf(h))%nlines + 1)
		}
		off += size
	}
	hm := obs.Heatmap{
		Kind:    "flat",
		Regions: make([]float64, regions),
		Dists: []obs.HeatDist{
			depth.Build("probe_depth_slots"),
			lines.Build("probe_lines"),
		},
		Gauges: map[string]float64{
			"slots":      float64(total),
			"live":       float64(live),
			"tombstones": float64(tombs),
			"fill":       float64(live+tombs) / float64(total),
		},
	}
	if len(as) > 1 {
		hm.Gauges["partitions"] = float64(len(as))
	}
	for r := range hm.Regions {
		lo := uint64(r) * total / uint64(regions)
		hi := uint64(r+1) * total / uint64(regions)
		if hi > lo {
			hm.Regions[r] = float64(regionLive[r]) / float64(hi-lo)
		}
	}
	return hm
}

// BucketHeatmapMulti builds the bucket-layout introspection heatmap over
// one or more BucketTables (partitions, in partition order): region fill over
// the concatenated bucket ranges (live lanes per bucket / BucketLanes), the
// index-loads-per-record distribution (1 = the one-line probe the layout
// exists for; 1+n = a record on the n-th stash node), the stash-chain-length
// distribution over buckets, and — when the arena is non-nil — per-segment
// utilization of the record store. Several tables must share one arena (the
// partitioned table's construction): the arena section is scraped once, from
// the first table's arena.
func BucketHeatmapMulti(ts []*BucketTable, regions int) obs.Heatmap {
	var total uint64
	for _, t := range ts {
		total += t.Buckets()
	}
	if regions <= 0 {
		regions = FlatHeatmapRegions
	}
	if uint64(regions) > total {
		regions = int(total)
	}
	regionLive := make([]uint64, regions)
	loads := obs.DistBuilder{}
	chains := obs.DistBuilder{}
	var live, tombs, stashLive, stashLen, grows, entries uint64
	off := uint64(0)
	for _, t := range ts {
		nb := t.Buckets()
		t.ScanBuckets(
			func(bi uint64, liveLanes, tombLanes, sLive, sLen int) {
				live += uint64(liveLanes)
				tombs += uint64(tombLanes)
				stashLive += uint64(sLive)
				stashLen += uint64(sLen)
				// Clamp: a partition that grew between sizing and scanning
				// may present more buckets than the snapshot budgeted for.
				if ri := (off + bi) * uint64(regions) / total; ri < uint64(regions) {
					regionLive[ri] += uint64(liveLanes)
				} else {
					regionLive[regions-1] += uint64(liveLanes)
				}
				chains.Add(uint64(sLen))
			},
			func(bi uint64, n int) { loads.Add(uint64(n)) },
		)
		grows += t.Grows()
		entries += uint64(t.Len())
		off += nb
	}
	hm := obs.Heatmap{
		Kind:    "bucket",
		Regions: make([]float64, regions),
		Dists: []obs.HeatDist{
			loads.Build("probe_loads"),
			chains.Build("stash_chain_len"),
		},
		Gauges: map[string]float64{
			"buckets":      float64(total),
			"lanes":        float64(total * BucketLanes),
			"live_lanes":   float64(live),
			"tomb_lanes":   float64(tombs),
			"stash_live":   float64(stashLive),
			"stash_nodes":  float64(stashLen),
			"fill":         float64(live+tombs) / float64(total*BucketLanes),
			"grows":        float64(grows),
			"live_entries": float64(entries),
		},
	}
	if len(ts) > 1 {
		hm.Gauges["partitions"] = float64(len(ts))
	}
	for r := range hm.Regions {
		lo := uint64(r) * total / uint64(regions)
		hi := uint64(r+1) * total / uint64(regions)
		if hi > lo {
			hm.Regions[r] = float64(regionLive[r]) / float64((hi-lo)*BucketLanes)
		}
	}
	if ar := ts[0].Arena(); ar != nil {
		segs := ar.SegmentStats()
		util := obs.DistBuilder{}
		var used, dead uint64
		for _, s := range segs {
			used += s.Used
			dead += s.Dead
			// Clamped to [0, 100]: an open segment's Used trails its bump
			// pointer by up to a page, and a scrape's Dead load may see a
			// retire its Used load predates, so Dead can exceed Used.
			if s.Cap > 0 {
				var live uint64
				if s.Used > s.Dead {
					live = s.Used - s.Dead
				}
				util.Add(min(live*100/s.Cap, 100))
			}
		}
		hm.Dists = append(hm.Dists, util.Build("segment_utilization_pct"))
		hm.Gauges["segments"] = float64(len(segs))
		hm.Gauges["arena_bytes_used"] = float64(used)
		hm.Gauges["arena_bytes_dead"] = float64(dead)
		hm.Gauges["arena_segments_freed"] = float64(ar.Freed())
	}
	return hm
}
