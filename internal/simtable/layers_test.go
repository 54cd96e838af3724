package simtable

import (
	"math"
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/hashfn"
	"dramhit/internal/memsim"
	"dramhit/internal/slotarr"
	"dramhit/internal/workload"
)

// TestCountsMatchLayerOne drives the same keys through one handle of a
// one-region flat dramhit table and through simtable's array and pipeline
// (which routes City64(key) by Fastrange over one array, as the real table
// does) and checks that the two layers visit the same lines: key lines per
// op and reprobes per op agree within 2% for the inserts that fill the table
// and for finds of every inserted key. Lines prefetched are not compared:
// the real ring prefetches a line pair per visit, the model one line.
func TestCountsMatchLayerOne(t *testing.T) {
	const slots = 1 << 16
	for _, fill := range []float64{0.50, 0.75, 0.90} {
		keys := workload.UniqueKeys(42, int(slots*fill))
		ops := float64(len(keys))

		// A one-region view runs the prefetch ring at any size; New would
		// run a table this small in direct mode.
		tbl := dramhit.NewView(dramhit.Config{Slots: slots},
			dramhit.Regions{Arrays: []*slotarr.Array{slotarr.New(slots)}, Side: new(slotarr.SidePair)})
		h := tbl.NewHandle()
		vals := make([]uint64, len(keys))
		h.PutBatch(keys, vals)
		ins := h.Stats()
		h.GetBatch(keys, vals, make([]bool, len(keys)))
		all := h.Stats()
		if all.Hits != ins.Hits+uint64(len(keys)) {
			t.Fatalf("fill %.2f: layer 1 found %d of %d keys", fill, all.Hits-ins.Hits, len(keys))
		}

		arr := newArray(&lineAlloc{}, slots)
		put := newPipeline(arr, dramhit.DefaultPrefetchWindow, true, false)
		get := newPipeline(arr, dramhit.DefaultPrefetchWindow, true, false)
		memsim.NewSim(memsim.IntelSkylake(), 1).Run(func(th *memsim.Thread) bool {
			for _, k := range keys {
				put.submit(th, hashfn.City64(k), true)
			}
			put.flush(th)
			for _, k := range keys {
				get.submit(th, hashfn.City64(k), false)
			}
			get.flush(th)
			return false
		})

		for _, c := range []struct {
			name      string
			real, sim float64
		}{
			{"insert lines/op", float64(ins.Lines) / ops, float64(put.keyLines) / ops},
			{"insert reprobes/op", float64(ins.Reprobes) / ops, float64(put.reprobes) / ops},
			{"find lines/op", float64(all.Lines-ins.Lines) / ops, float64(get.keyLines) / ops},
			{"find reprobes/op", float64(all.Reprobes-ins.Reprobes) / ops, float64(get.reprobes) / ops},
		} {
			t.Logf("fill %.2f %s: layer 1 %.4f, layer 2 %.4f", fill, c.name, c.real, c.sim)
			if math.Abs(c.sim-c.real) > 0.02*c.real {
				t.Errorf("fill %.2f %s: layer 2 %.4f is not within 2%% of layer 1's %.4f",
					fill, c.name, c.sim, c.real)
			}
		}
	}
}
