package dramhitp

import (
	"fmt"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// The partitioned reader's twins of dramhit's stage-two schedule tests: same
// batch schedule, same rule (DESIGN.md §3.1.8), asserted through the counting
// hook on both of the reader's rings.

func newStageTable(window int) *Table {
	return New(Config{Slots: 1 << 12, Producers: 1, Consumers: 2, Layout: table.LayoutBucket, PrefetchWindow: window})
}

// TestStageTwoScheduleGetBytes: every byte lookup is staged exactly once, in
// order, with its own hash, at the moment the rule names; at each completion
// the cursor stands exactly where the rule puts it, past the lookup being
// completed. Batches of 8 at window 16 and the first half-window of batches of
// 32 are the cases the parent's stage-at-mid-ring-from-the-drain rule missed.
func TestStageTwoScheduleGetBytes(t *testing.T) {
	for _, window := range []int{1, 2, 16} {
		tb := newStageTable(window)
		w := tb.NewWriteHandle()
		for i := 0; i < 997; i += 2 { // half the keyspace present
			w.PutBytes([]byte(fmt.Sprintf("stage-key-%06d", i)), []byte("value"))
		}
		w.Close()
		r := tb.NewReadHandle()
		var hashes []uint64 // by ring position
		nstaged := 0
		r.stageHook = func(hv uint64) {
			pos := r.bqstaged
			if pos != nstaged || hv != hashes[pos] {
				t.Fatalf("window %d: stage two #%d ran for position %d with hash %#x", r.window, nstaged, pos, hv)
			}
			tabletest.CheckStageTiming(t, pos, r.bqhead, r.bqtail, r.window)
			nstaged++
		}
		r.OnGetBytesComplete(func(id uint64, _ []byte, _ bool) {
			want := tabletest.WantStaged(int(id), r.bqhead, r.window)
			if int(id) != r.bqtail-1 || nstaged != want || nstaged <= int(id) {
				t.Fatalf("window %d: completing %d (tail %d) of %d pushed with %d staged, want %d",
					r.window, id, r.bqtail, r.bqhead, nstaged, want)
			}
		})
		run := func(batch int) {
			for i := 0; i < batch; i++ {
				pos := len(hashes)
				k := []byte(fmt.Sprintf("stage-key-%06d", pos%997))
				_, hv := tb.locateBucketBytes(k)
				hashes = append(hashes, hv)
				r.SubmitGetBytes(uint64(pos), k)
			}
			r.FlushGetBytes()
			if nstaged != len(hashes) || r.bqstaged != r.bqhead {
				t.Fatalf("window %d, batch %d: %d lookups, stage two ran %d times (cursor %d, head %d)",
					r.window, batch, len(hashes), nstaged, r.bqstaged, r.bqhead)
			}
		}
		// The constructed window, then lowered and restored between batches,
		// pipeline empty, the way the governor's applyDecision does it.
		for _, w := range []int{window, max(window/2, 1), 1, window} {
			r.window = w
			for _, b := range tabletest.StageBatches(window) {
				run(b)
			}
		}
		tb.Close()
	}
}

// TestStageTwoScheduleUint64 is the same pin for the uint64-over-bucket read
// ring (Submit/Flush, processOldest's bucket branch). The ring has no
// completion callback, so "before its drain" is asserted from the hook (the
// position is still in the ring) and the count after every flush. Keys are
// distinct within a batch, so piggybacking never takes a lookup off the ring.
func TestStageTwoScheduleUint64(t *testing.T) {
	for _, window := range []int{1, 2, 16} {
		tb := newStageTable(window)
		r := tb.NewReadHandle()
		var hashes []uint64
		nstaged := 0
		r.stageHook = func(hv uint64) {
			pos := r.staged
			if pos != nstaged || hv != hashes[pos] {
				t.Fatalf("window %d: stage two #%d ran for position %d with hash %#x", r.window, nstaged, pos, hv)
			}
			tabletest.CheckStageTiming(t, pos, r.head, r.tail, r.window)
			nstaged++
		}
		resps := make([]table.Response, 128)
		run := func(batch int) {
			reqs := make([]table.Request, batch)
			for i := range reqs {
				pos := len(hashes)
				key := uint64(pos%997) + 1
				_, hv := tb.locateBucket(key)
				hashes = append(hashes, hv)
				reqs[i] = table.Request{Op: table.Get, Key: key, ID: uint64(pos)}
			}
			nreq, nresp := r.Submit(reqs, resps)
			n, done := r.Flush(resps[nresp:])
			if nreq != batch || !done || nresp+n != batch {
				t.Fatalf("window %d, batch %d: submitted %d, %d+%d responses, drained %v", r.window, batch, nreq, nresp, n, done)
			}
			if nstaged != len(hashes) || r.staged != r.head {
				t.Fatalf("window %d, batch %d: %d lookups, stage two ran %d times (cursor %d, head %d)",
					r.window, batch, len(hashes), nstaged, r.staged, r.head)
			}
		}
		for _, w := range []int{window, max(window/2, 1), 1, window} {
			r.window = w
			for _, b := range tabletest.StageBatches(window) {
				run(b)
			}
		}
		tb.Close()
	}
}
