package bench

import (
	"fmt"

	"dramhit/internal/memsim"
	"dramhit/internal/simtable"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

func init() {
	register("ext-channels", extChannels)
	register("ext-tombstones", extTombstones)
}

// extChannels tests the paper's §4.2 speculation head-on: "DRAMHIT comes
// close to saturating memory bandwidth with only 32 cores, which allows for
// the possibility of doubling the number of memory channels, and hence
// doubling the throughput of the hash table." We sweep the simulated
// machine's channel count and measure where each design's 64-thread
// throughput goes.
func extChannels(cfg Config) *Artifact {
	a := &Artifact{
		ID:     "ext-channels",
		Title:  "Extension: throughput vs memory channels per socket (uniform, large, 64 threads)",
		XLabel: "channels per socket", YLabel: "Mops",
	}
	channels := []int{3, 6, 9, 12}
	if cfg.Quick {
		channels = []int{6, 12}
	}
	for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
		for _, kind := range []simtable.Kind{simtable.Folklore, simtable.DRAMHiT} {
			s := Series{Name: mixName(mix) + " " + kind.String()}
			for _, ch := range channels {
				m := memsim.IntelSkylake()
				m.ChannelsPerSocket = ch
				r := simtable.Run(simtable.Config{
					Machine: m, Kind: kind, Threads: 64, Slots: largeSlots,
					MeasureOps: cfg.ops(160_000), Seed: cfg.Seed,
				}, mix)
				s.X = append(s.X, float64(ch))
				s.Y = append(s.Y, r.Mops)
			}
			a.Series = append(a.Series, s)
		}
	}
	// Quantify the speculation: DRAMHiT's 6→12 channel gain vs Folklore's.
	gain := func(name string) float64 {
		for _, s := range a.Series {
			if s.Name == name && len(s.Y) >= 2 {
				return s.Y[len(s.Y)-1] / s.Y[indexOf(s.X, 6)]
			}
		}
		return 0
	}
	a.Notes = append(a.Notes, fmt.Sprintf(
		"doubling channels 6→12 scales dramhit finds by %.2fx but folklore by only %.2fx — the bandwidth-bound design pockets new channels, the latency-bound one cannot (the paper's §4.2 speculation)",
		gain("finds dramhit"), gain("finds folklore")))
	return a
}

func indexOf(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}

// extTombstones measures (on the real table) how deletion tombstones
// degrade probe lengths — the cost of the paper's "space is freed only when
// the hash table is resized" policy, and the reason the resizable wrapper
// compacts on churn.
func extTombstones(cfg Config) *Artifact {
	a := &Artifact{
		ID:     "ext-tombstones",
		Title:  "Extension: tombstone drift — cache lines per lookup after delete/reinsert churn (real execution)",
		XLabel: "churn rounds (delete+reinsert 25% of keys)", YLabel: "cache lines per find",
	}
	size := uint64(1 << 18)
	if cfg.Quick {
		size = 1 << 15
	}
	live := int(float64(size) * 0.5)
	keys := workload.UniqueKeys(cfg.Seed, live+live/4*12)
	tbl := newRingTable(size, table.LayoutFlat)
	h := tbl.NewHandle()
	h.PutBatch(keys[:live], make([]uint64, live))

	s := Series{Name: "finds dramhit (tombstoned table)"}
	cur := append([]uint64(nil), keys[:live]...)
	nextFresh := live
	churned := 0
	for _, target := range []int{0, 1, 2, 3, 4} {
		// Churn up to the target round count.
		for ; churned < target; churned++ {
			quarter := live / 4
			// Delete a quarter, insert fresh keys in their place.
			for _, k := range cur[:quarter] {
				h.Submit([]table.Request{{Op: table.Delete, Key: k}}, nil)
			}
			fresh := keys[nextFresh : nextFresh+quarter]
			nextFresh += quarter
			h.PutBatch(fresh, make([]uint64, quarter))
			cur = append(cur[quarter:], fresh...)
		}
		h.Flush(nil)
		// Measure lines/op for lookups of the current live set.
		h2 := tbl.NewHandle()
		vals := make([]uint64, len(cur))
		found := make([]bool, len(cur))
		h2.GetBatch(cur, vals, found)
		st := h2.Stats()
		s.X = append(s.X, float64(target))
		s.Y = append(s.Y, float64(st.Lines)/float64(st.Ops()))
	}
	a.Series = append(a.Series, s)
	a.Notes = append(a.Notes,
		"live count is constant; only tombstones accumulate. Probe cost grows with churn — the degradation resizing exists to undo (the resizable wrapper in internal/growt compacts tombstones on migration)")
	return a
}
