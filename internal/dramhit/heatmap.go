package dramhit

import (
	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
)

// Heatmap is the obs heatmap source of the table's storage: the
// concatenation of the regions' slot (or bucket) ranges in region order,
// walked by the slotarr builders, so one Regions row shows region skew
// directly. The flat side re-derives displacement from stored keys (the home
// function is the same split fastrange the probe paths route by, so
// probe_lines is exactly the lines-touched a cold Get of that key pays), the
// bucket side folds the ScanBuckets walk with the arena's segment
// accounting. Scrape-time work only — nothing on the op paths feeds it.
func (t *Table) Heatmap() obs.Heatmap {
	if t.Bucket() != nil {
		bkts := make([]*slotarr.BucketTable, len(t.regs))
		for i := range t.regs {
			bkts[i] = t.regs[i].bkt
		}
		return slotarr.BucketHeatmapMulti(bkts, 0)
	}
	arrs := make([]*slotarr.Array, len(t.regs))
	for i := range t.regs {
		arrs[i] = t.regs[i].arr
	}
	return slotarr.FlatHeatmapMulti(arrs, func(_ int, k uint64) uint64 {
		_, home := hashfn.FastrangeSplit(hashfn.City64(k), t.nreg, t.rslots)
		return home
	}, 0)
}
