package dramhit

import (
	"fmt"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// stageCases are the windows the stage-two tests run at on one region, and
// the default window over three — DRAMHiT-P's read view — where each entry's
// stage-two prefetch must go to the region recorded in the entry.
var stageCases = []struct{ window, regions int }{{1, 1}, {2, 1}, {16, 1}, {2, 3}, {16, 3}}

// TestStageTwoScheduleBytes pins the byte ring's stage-two schedule through
// the counting hook: every submission is staged exactly once, in submission
// order, with its own hash, at the moment the rule names (tabletest.CheckStageTiming);
// and at each completion the cursor stands exactly where the rule puts it — in
// particular past the entry being completed. The parent's "stage the entry at
// tail+window/2, from the drain only" rule fails the count for every batch of
// 8 at window 16 (nothing is ever staged) and for the first half-window of
// every batch of 32.
func TestStageTwoScheduleBytes(t *testing.T) {
	for _, c := range stageCases {
		window := c.window
		tbl := newRegionTable(Config{Slots: 1 << 12, Layout: table.LayoutBucket, PrefetchWindow: window}, c.regions)
		h := tbl.NewHandle()
		var hashes []uint64 // by ring position
		nstaged := 0
		h.stageHook = func(hv uint64) {
			pos := h.bstaged
			if pos != nstaged || hv != hashes[pos] {
				t.Fatalf("window %d: stage two #%d ran for position %d with hash %#x", h.window, nstaged, pos, hv)
			}
			tabletest.CheckStageTiming(t, pos, h.bhead, h.btail, h.window)
			nstaged++
		}
		h.OnByteComplete(func(c ByteCompletion) {
			id := int(c.ID)
			if id != h.btail-1 {
				t.Fatalf("window %d: completion %d at tail %d", h.window, id, h.btail)
			}
			if want := tabletest.WantStaged(id, h.bhead, h.window); nstaged != want || nstaged <= id {
				t.Fatalf("window %d: completing %d of %d pushed with %d staged, want %d",
					h.window, id, h.bhead, nstaged, want)
			}
		})
		run := func(batch int) {
			for i := 0; i < batch; i++ {
				pos := len(hashes)
				k := []byte(fmt.Sprintf("stage-key-%06d", pos%997)) // repeats: overwrites and hits
				hashes = append(hashes, tbl.Bucket().HashOf(k))
				switch pos % 4 {
				case 0:
					h.SubmitBytes(table.Put, uint64(pos), k, []byte("value"))
				case 3:
					h.SubmitBytes(table.Delete, uint64(pos), k, nil)
				default:
					h.SubmitBytes(table.Get, uint64(pos), k, nil)
				}
			}
			h.FlushBytes()
			if nstaged != len(hashes) || h.bstaged != h.bhead {
				t.Fatalf("window %d, batch %d: %d submissions, stage two ran %d times (cursor %d, head %d)",
					h.window, batch, len(hashes), nstaged, h.bstaged, h.bhead)
			}
		}
		// The constructed window, then lowered and restored between batches,
		// pipeline empty, the way the governor's applyDecision does it.
		for _, w := range []int{window, max(window/2, 1), 1, window} {
			h.window = w
			for _, b := range tabletest.StageBatches(window) {
				run(b)
			}
		}
	}
}
